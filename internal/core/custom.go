package core

import (
	"fmt"
	"sync"

	"repro/internal/ecc"
)

// Custom ECC registration — the paper's stated future work ("an API to
// further simplify the addition of custom ECC algorithms and
// constraints"). A registered method participates fully: the trainer
// measures it, the optimizer selects it under all three constraints,
// and the container records its method id so decode is automatic.
//
// Method ids 1-4 are ARC's built-ins; ids in [CustomMethodBase, 255]
// are reserved for custom codes.

// CustomMethodBase is the first method id available to custom codes.
const CustomMethodBase ecc.Method = 128

// CustomBuilder constructs a code instance for one parameter value.
// devSize is advisory (only striped codes need it).
type CustomBuilder func(param, workers, devSize int) (ecc.Code, error)

// CustomMethod describes a registered ECC family.
type CustomMethod struct {
	ID   ecc.Method
	Name string
	// Params enumerates the family's configuration grid.
	Params []int
	// Overhead returns the storage overhead for a parameter value.
	Overhead func(param int) float64
	// Caps declares the family's error-response capabilities.
	Caps ecc.Capability
	// Build constructs instances.
	Build CustomBuilder
}

var (
	customMu      sync.RWMutex
	customMethods = map[ecc.Method]CustomMethod{}
)

// RegisterCustomMethod adds an ECC family to ARC's configuration
// space. It fails on id collisions, reserved ids, or incomplete
// definitions. Engines built after registration train and select the
// new family like any built-in.
func RegisterCustomMethod(m CustomMethod) error {
	if m.ID < CustomMethodBase {
		return fmt.Errorf("core: custom method id %d is reserved (use >= %d)", m.ID, CustomMethodBase)
	}
	if m.Name == "" || m.Build == nil || m.Overhead == nil || len(m.Params) == 0 {
		return fmt.Errorf("core: custom method %d is incompletely defined", m.ID)
	}
	customMu.Lock()
	defer customMu.Unlock()
	if _, dup := customMethods[m.ID]; dup {
		return fmt.Errorf("core: custom method id %d already registered", m.ID)
	}
	customMethods[m.ID] = m
	return nil
}

// UnregisterCustomMethod removes a family (primarily for tests).
func UnregisterCustomMethod(id ecc.Method) {
	customMu.Lock()
	defer customMu.Unlock()
	delete(customMethods, id)
}

// customConfigs lists configurations of all registered families.
func customConfigs() []Config {
	customMu.RLock()
	defer customMu.RUnlock()
	var cs []Config
	for id, m := range customMethods {
		for _, p := range m.Params {
			cs = append(cs, Config{Method: id, Param: p})
		}
	}
	return cs
}

// lookupCustom returns the family for a method id.
func lookupCustom(id ecc.Method) (CustomMethod, bool) {
	customMu.RLock()
	defer customMu.RUnlock()
	m, ok := customMethods[id]
	return m, ok
}

// customCode holds a registered code to what the chunk codec assumes of
// every code: its result lives in dst. The ecc.Code contract lets a code
// return other storage, and a decode result aliasing encoded would be
// recycled under its reader: ChunkReader.decode returns the payload
// buffer to the pool before it adopts the result, and arcd recycles the
// request frame. Built-ins keep to dst and are never wrapped.
type customCode struct{ ecc.Code }

func (c customCode) EncodeTo(dst, data []byte, s *ecc.Scratch) []byte {
	return inDst(dst, c.Code.EncodeTo(dst, data, s))
}

func (c customCode) DecodeTo(dst, encoded []byte, origLen int, s *ecc.Scratch) ([]byte, ecc.Report, error) {
	out, rep, err := c.Code.DecodeTo(dst, encoded, origLen, s)
	return inDst(dst, out), rep, err
}

// inDst returns out in dst's storage: out itself when the code wrote it
// there (or it is empty, nil included), otherwise a copy into dst, grown
// if its capacity falls short.
func inDst(dst, out []byte) []byte {
	if len(out) == 0 || cap(dst) > 0 && &dst[:1][0] == &out[0] {
		return out
	}
	dst = ecc.GrowTo(dst, len(out))
	copy(dst, out)
	return dst
}
