package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/faultinject"
)

// ExtCrossoverResult maps the burst-protection trade space between
// ARC's two burst-capable methods: Reed-Solomon (repairs up to M whole
// devices per stripe at m/k overhead) and interleaved SEC-DED (repairs
// one burst up to the interleave depth at a flat 12.5%). The paper
// picks RS for burst regimes; the crossover shows where the cheaper
// extension method suffices.
type ExtCrossoverResult struct {
	Rows []ExtCrossoverRow
}

// ExtCrossoverRow is one (config, burst size) cell.
type ExtCrossoverRow struct {
	Config     string
	Overhead   float64
	EncMBs     float64
	BurstBytes int
	Trials     int
	Recovered  int
}

// ExtCrossover sweeps burst sizes against both methods.
func ExtCrossover(payloadBytes, trials int, seed int64) (*ExtCrossoverResult, error) {
	if payloadBytes <= 0 {
		payloadBytes = 256 << 10
	}
	if trials <= 0 {
		trials = 20
	}
	payload := randomBytes(payloadBytes, seed)
	configs := []core.Config{
		{Method: ecc.MethodInterleavedSECDED, Param: 64},
		{Method: ecc.MethodInterleavedSECDED, Param: 1024},
		{Method: ecc.MethodReedSolomon, Param: 15},
		{Method: ecc.MethodReedSolomon, Param: 64},
	}
	burstSizes := []int{16, 64, 512, 4096}
	res := &ExtCrossoverResult{}
	for _, cfg := range configs {
		code, err := cfg.Build(1)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		protected, _ := code.EncodeTo(nil, payload, nil)
		encMBs := mbs(len(payload), time.Since(t0))
		repair := func(mut []byte) ([]byte, error) {
			//arcvet:ignore integrityflow campaign verdicts on recovered bytes vs ground truth; per-trial reports are not aggregated
			got, _, _, err := code.DecodeTo(nil, mut, len(payload), nil)
			return got, err
		}
		for _, bs := range burstSizes {
			v := faultinject.RunRepairCampaign(protected, payload, faultinject.Burst{Bytes: bs}, repair, trials, seed)
			res.Rows = append(res.Rows, ExtCrossoverRow{
				Config:     cfg.String(),
				Overhead:   cfg.Overhead(),
				EncMBs:     encMBs,
				BurstBytes: bs,
				Trials:     trials,
				Recovered:  v.Repaired,
			})
		}
	}
	return res, nil
}

// Table renders the crossover map.
func (r *ExtCrossoverResult) Table() *Table {
	t := &Table{
		Title:  "Extension: burst-protection crossover — interleaved SEC-DED vs Reed-Solomon",
		Header: []string{"config", "overhead", "enc MB/s", "burst bytes", "recovered"},
		Caption: "Shape: ilsecded-D recovers bursts up to D bytes at a flat 12.5%;\n" +
			"RS recovers bursts up to M devices (M x device size) at m/k overhead.\n" +
			"Below the interleave depth the cheap method wins; beyond it only RS survives.",
	}
	for _, row := range r.Rows {
		t.AddRow(row.Config, f3(row.Overhead), f1(row.EncMBs), iS(row.BurstBytes),
			iS(row.Recovered)+"/"+iS(row.Trials))
	}
	return t
}
