package core

import (
	"fmt"
	"math"

	"repro/internal/ecc"
)

// Sentinel constraint values mirroring the paper's ARC_ANY_* flags.
const (
	// AnyMem removes the storage constraint.
	AnyMem = math.MaxFloat64
	// AnyBW removes the throughput constraint.
	AnyBW = 0.0
)

// Resiliency is the paper's resiliency constraint: restrict ARC to
// specific ECC methods, to methods with specific error-response
// capabilities, or to methods able to correct an expected error rate.
// The zero value (ARC_ANY_ECC) allows every method.
type Resiliency struct {
	// Methods restricts to these ECC families (nil/empty = any).
	Methods []ecc.Method
	// Caps requires these error-response capabilities (0 = any).
	Caps ecc.Capability
	// ErrorsPerMB, when positive, restricts to methods able to correct
	// that expected uniform soft-error rate.
	ErrorsPerMB float64
}

// AnyECC is the unrestricted resiliency constraint.
var AnyECC = Resiliency{}

// allows reports whether the constraint admits a configuration.
func (r Resiliency) allows(c Config) bool {
	if len(r.Methods) > 0 {
		ok := false
		for _, m := range r.Methods {
			if m == c.Method {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if r.Caps != 0 && !c.Caps().Has(r.Caps) {
		return false
	}
	if r.ErrorsPerMB > 0 {
		ok := false
		for _, m := range MethodsForErrorRate(r.ErrorsPerMB) {
			if m == c.Method {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Choice is the optimizer's selected configuration.
type Choice struct {
	Config  Config
	Threads int
	// PredictedEncMBs/PredictedDecMBs come from the training table.
	PredictedEncMBs float64
	PredictedDecMBs float64
	// Overhead is the configuration's storage overhead fraction.
	Overhead float64
	// OverBudget is set when no configuration satisfied the memory
	// constraint and ARC had to exceed it (the paper prints a warning
	// in this case).
	OverBudget bool
	// UnderThroughput is set when the predicted throughput misses the
	// requested lower bound.
	UnderThroughput bool
}

// Optimizer selects ECC configurations under the three constraints,
// driven by measured throughput: the points of Table, or — for an
// optimizer obtained from Engine.Optimizer, whose Table is nil — points
// the engine measures the first time a decision asks for them. Thread
// counts considered are the trained tiers up to MaxThreads; a point
// Table lacks is skipped.
type Optimizer struct {
	Table      *TrainTable
	MaxThreads int
	eng        *Engine
}

// point returns the throughput of cfg at threads; ok is false when a
// literal table has no such point.
func (o *Optimizer) point(cfg Config, threads int) (e TrainEntry, ok bool, err error) {
	if o.eng != nil {
		e, err = o.eng.point(cfg, threads)
		return e, err == nil, err
	}
	e, ok = o.Table.Lookup(cfg.String(), threads)
	return e, ok, nil
}

// candidate pairs a configuration with its best thread choice for a
// throughput bound.
type candidate struct {
	cfg      Config
	threads  int
	encMBs   float64
	decMBs   float64
	overhead float64
	meetsBW  bool
}

// candidate resolves cfg's threads: the fewest that meet the bound
// (the paper uses fewer threads when resources suffice), else the
// fastest. Tiers are asked for in ascending order and no further than
// the first that meets the bound; ok is false when none is known.
func (o *Optimizer) candidate(cfg Config, bw float64) (best candidate, ok bool, err error) {
	for _, th := range trainThreadCounts(o.MaxThreads) {
		e, found, err := o.point(cfg, th)
		if err != nil {
			return candidate{}, false, err
		}
		if !found {
			continue
		}
		c := candidate{cfg: cfg, threads: th, encMBs: e.EncMBs, decMBs: e.DecMBs,
			overhead: cfg.Overhead(), meetsBW: e.EncMBs >= bw}
		if c.meetsBW {
			return c, true, nil
		}
		if !ok || c.encMBs > best.encMBs {
			best, ok = c, true
		}
	}
	return best, ok, nil
}

// level resolves the configurations of one overhead level: the one
// that meets the bound with the smallest surplus, and the fastest
// whether it meets it or not — the first in order on ties, nil when no
// point is known.
func (o *Optimizer) level(cfgs []Config, bw float64) (meets, fastest *candidate, err error) {
	for _, cfg := range cfgs {
		c, ok, err := o.candidate(cfg, bw)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		if c.meetsBW && (meets == nil || c.encMBs < meets.encMBs) {
			meets = &c
		}
		if fastest == nil || c.encMBs > fastest.encMBs {
			fastest = &c
		}
	}
	return meets, fastest, nil
}

// ErrNoConfiguration reports an over-constrained request (e.g. a
// resiliency constraint naming no known method).
var ErrNoConfiguration = fmt.Errorf("core: no ECC configuration matches the constraints")

// Joint implements the paper's selection procedure: among allowed
// configurations, prefer those meeting both the memory bound (overhead
// under but closest to it) and the throughput bound (above but closest
// to it); if none meets both, fall back to the configuration closest
// to the memory budget with throughput closest to the bound.
//
// The walk asks only for the points that can change the answer, and
// returns what the complete table would: without a throughput bound
// that is one thread tier of the configurations tied at the winning
// overhead; with one, tiers ascend until the bound is met, overhead
// level by overhead level; only a bound nothing in the budget reaches
// needs every point in the budget.
func (o *Optimizer) Joint(mem, bw float64, res Resiliency) (Choice, error) {
	if res.ErrorsPerMB > 0 && mem == AnyMem {
		// Guarantee mode: the user stated an error rate but no storage
		// budget, so ARC applies the cheapest configuration adequate
		// for the rate (the paper's 1 err/MB -> SEC-DED over every
		// eight bytes) rather than spending unbounded storage.
		cfg := MinimalAdequateConfig(res.ErrorsPerMB)
		if res.allows(cfg) {
			mem = cfg.Overhead()
		}
	}
	var levels [][]Config // allowed configurations by overhead, ascending
	fit := 0              // levels[:fit] are within the budget
	for _, cfg := range AllConfigs() {
		if !res.allows(cfg) {
			continue
		}
		if n := len(levels); n > 0 && levels[n-1][0].Overhead() == cfg.Overhead() {
			levels[n-1] = append(levels[n-1], cfg)
			continue
		}
		levels = append(levels, []Config{cfg})
		if cfg.Overhead() <= mem {
			fit++
		}
	}
	// Within the budget, from the level closest under it (the strongest
	// protection the budget buys) down: the first level where some
	// configuration meets the bound decides.
	var fastest *candidate
	for i := fit - 1; i >= 0; i-- {
		meets, fast, err := o.level(levels[i], bw)
		if err != nil {
			return Choice{}, err
		}
		if meets != nil {
			return choiceFrom(*meets, mem, bw), nil
		}
		if fast != nil && (fastest == nil || fast.encMBs > fastest.encMBs) {
			fastest = fast
		}
	}
	// The throughput bound is unreachable within the budget; hold the
	// budget and get as close to the bound as possible (paper: "ARC
	// attempts to get as close as possible"), ties toward protection —
	// levels were visited from the highest overhead down.
	if fastest != nil {
		return choiceFrom(*fastest, mem, bw), nil
	}
	// Nothing fits the budget (paper: go over, warn, use the
	// configuration with the lowest possible overhead).
	for _, cfgs := range levels[fit:] {
		_, fast, err := o.level(cfgs, bw)
		if err != nil {
			return Choice{}, err
		}
		if fast != nil {
			return choiceFrom(*fast, mem, bw), nil
		}
	}
	return Choice{}, ErrNoConfiguration
}

// Memory optimizes for the storage budget only.
func (o *Optimizer) Memory(mem float64, res Resiliency) (Choice, error) {
	return o.Joint(mem, AnyBW, res)
}

// Throughput optimizes for the throughput bound only.
func (o *Optimizer) Throughput(bw float64, res Resiliency) (Choice, error) {
	return o.Joint(AnyMem, bw, res)
}

func choiceFrom(c candidate, mem, bw float64) Choice {
	return Choice{
		Config:          c.cfg,
		Threads:         c.threads,
		PredictedEncMBs: c.encMBs,
		PredictedDecMBs: c.decMBs,
		Overhead:        c.overhead,
		OverBudget:      c.overhead > mem,
		UnderThroughput: bw > 0 && c.encMBs < bw,
	}
}
