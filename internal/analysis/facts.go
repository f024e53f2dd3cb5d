package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
)

// A Fact is a serializable statement an analyzer proves about a
// function, keyed by the function's stable full name so that facts
// exported while analyzing one package can be imported by analyzers
// running later (in topological import order) on its dependents.
// Facts must marshal to JSON, so a run's whole store can be dumped and
// diffed when debugging an analyzer (TestFactStoreRoundTrip).
type Fact interface {
	// FactName distinguishes fact kinds on one function. Each
	// analyzer should namespace its facts (e.g. "allocguard.result").
	FactName() string
}

// FuncKey is the stable identity of a function across type-check
// units. Distinct units re-check the same import path into distinct
// *types.Package instances, so object pointers do not compare across
// packages; the qualified full name (with generic instantiations
// folded to their origin) does.
func FuncKey(f *types.Func) string {
	if o := f.Origin(); o != nil {
		f = o
	}
	return f.FullName()
}

// FactStore holds every exported fact for one driver run, keyed by
// FuncKey then fact name.
type FactStore struct {
	m map[string]map[string]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[string]map[string]Fact{}}
}

// ExportKey records a fact for the function with the given key,
// replacing any previous fact of the same kind (analyzers re-export
// on every fixpoint round).
func (s *FactStore) ExportKey(key string, fact Fact) {
	if s.m[key] == nil {
		s.m[key] = map[string]Fact{}
	}
	s.m[key][fact.FactName()] = fact
}

// Export records a fact for fn.
func (s *FactStore) Export(fn *types.Func, fact Fact) {
	s.ExportKey(FuncKey(fn), fact)
}

// ImportKey retrieves a fact by function key and fact name.
func (s *FactStore) ImportKey(key, name string) (Fact, bool) {
	f, ok := s.m[key][name]
	return f, ok
}

// Import retrieves a fact for fn.
func (s *FactStore) Import(fn *types.Func, name string) (Fact, bool) {
	if fn == nil {
		return nil, false
	}
	return s.ImportKey(FuncKey(fn), name)
}

// DeleteKey removes one fact kind from a function, used when a
// fixpoint round withdraws a previously exported summary.
func (s *FactStore) DeleteKey(key, name string) {
	delete(s.m[key], name)
}

// Len counts stored facts.
func (s *FactStore) Len() int {
	n := 0
	for _, facts := range s.m {
		n += len(facts)
	}
	return n
}

// serializedFact is the JSON shape of one (function, fact) pair.
type serializedFact struct {
	Func string          `json:"func"`
	Name string          `json:"fact"`
	Data json.RawMessage `json:"data"`
}

// MarshalJSON renders the store as a deterministic array sorted by
// (function key, fact name).
func (s *FactStore) MarshalJSON() ([]byte, error) {
	var out []serializedFact
	for key, facts := range s.m {
		for name, fact := range facts {
			data, err := json.Marshal(fact)
			if err != nil {
				return nil, fmt.Errorf("fact %s on %s: %w", name, key, err)
			}
			out = append(out, serializedFact{Func: key, Name: name, Data: data})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Name < out[j].Name
	})
	return json.Marshal(out)
}
