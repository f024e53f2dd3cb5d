package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/gf256"
)

// host describes the machine a result was measured on.
type host struct {
	NProc      int      `json:"nproc"`
	GoMaxProcs int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	GF256Tier  string   `json:"gf256_tier"`
	GF256Feats []string `json:"gf256_features"`
	L2Bytes    int64    `json:"l2_bytes"`
	L3Bytes    int64    `json:"l3_bytes"`
	// CorpusBytes is the workload's input held in memory, to read
	// beside the cache sizes: the corpus is several times L2 and well
	// inside this host's shared L3, so bandwidth rows are cache-resident.
	CorpusBytes int64  `json:"corpus_bytes"`
	Note        string `json:"note"`
}

func hostInfo(corpus int64) host {
	return host{
		NProc:       runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GF256Tier:   gf256.ActiveTier(),
		GF256Feats:  gf256.Features(),
		L2Bytes:     cacheBytes(2),
		L3Bytes:     cacheBytes(3),
		CorpusBytes: corpus,
		Note:        "files are written and read through the OS page cache with no added fsync; latencies and bandwidths are this sandbox's, not a device's",
	}
}

// cacheBytes reads cpu0's cache size at the given level from sysfs (0
// when the host does not say).
func cacheBytes(level int) int64 {
	const base = "/sys/devices/system/cpu/cpu0/cache/"
	entries, err := os.ReadDir(base)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		lv, err := os.ReadFile(base + e.Name() + "/level")
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		typ, _ := os.ReadFile(base + e.Name() + "/type") // absent type reads as not-instruction
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(base + e.Name() + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n * mult
		}
	}
	return 0
}

// peakRSSMB is this process's VmHWM in MB (10^6 bytes), 0 when /proc
// does not say.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}
