package core

import (
	"fmt"
	"hash/crc32"

	"repro/internal/ecc"
)

// Custom ECC registration — the paper's stated future work ("an API to
// further simplify the addition of custom ECC algorithms and
// constraints"). A registered method participates fully: the trainer
// measures it, the optimizer selects it under all three constraints,
// and the container records its method id so decode is automatic.
//
// Every family in the configuration space is one CustomMethod record in
// one table (methods, config.go): ARC's five built-ins, method ids 1-5,
// are described by the same record as the families registered with ids
// in [CustomMethodBase, 255].

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

// configName is Config{m.ID, param}.String().
func (m CustomMethod) configName(param int) string { return fmt.Sprintf("%s%d", m.Name, param) }

// RegisterCustomMethod adds an ECC family to ARC's configuration
// space. It fails on id collisions, reserved ids, incomplete
// definitions, or a configuration name already in the space (the
// training table is keyed by name). Engines built after registration
// train and select the new family like any built-in.
func RegisterCustomMethod(m CustomMethod) error {
	if m.ID < CustomMethodBase {
		return fmt.Errorf("core: custom method id %d is reserved (use >= %d)", m.ID, CustomMethodBase)
	}
	if m.Name == "" || m.Build == nil || m.Overhead == nil || len(m.Params) == 0 {
		return fmt.Errorf("core: custom method %d is incompletely defined", m.ID)
	}
	methodsMu.Lock()
	defer methodsMu.Unlock()
	if _, dup := methods[m.ID]; dup {
		return fmt.Errorf("core: custom method id %d already registered", m.ID)
	}
	names := make(map[string]bool)
	for _, f := range methods {
		for _, p := range f.Params {
			names[f.configName(p)] = true
		}
	}
	for _, p := range m.Params {
		name := m.configName(p)
		if names[name] {
			return fmt.Errorf("core: custom method %d: configuration name %q is taken", m.ID, name)
		}
		names[name] = true
	}
	build := m.Build
	m.Build = func(param, workers, devSize int) (ecc.Code, error) {
		code, err := build(param, workers, devSize)
		if err != nil {
			return nil, err
		}
		return customCode{code}, nil
	}
	methods[m.ID] = m
	return nil
}

// UnregisterCustomMethod removes a registered family (primarily for
// tests). Built-in families cannot be removed.
func UnregisterCustomMethod(id ecc.Method) {
	if id < CustomMethodBase {
		return
	}
	methodsMu.Lock()
	defer methodsMu.Unlock()
	delete(methods, id)
}

// customCode holds a registered code to what the chunk codec assumes of
// every code: its result lives in dst, and the CRC-32C it returns is
// that of the original bytes. The ecc.Code contract lets a code return
// other storage, and a decode result aliasing encoded would be recycled
// under its reader: ChunkReader.decode returns the payload buffer to
// the pool before it adopts the result, and arcd recycles the request
// frame. The CRC is taken here in a pass of its own and the code's is
// dropped, so a registered code never vouches for its own output: the
// chunk digest checks it as it did before codes returned one.
// RegisterCustomMethod wraps the builder of every registered family;
// built-ins keep to dst, return their output's CRC and are never
// wrapped.
type customCode struct{ ecc.Code }

func (c customCode) EncodeTo(dst, data []byte, s *ecc.Scratch) ([]byte, uint32) {
	out, _ := c.Code.EncodeTo(dst, data, s)
	return inDst(dst, out), crc32.Checksum(data, ecc.Castagnoli)
}

func (c customCode) DecodeTo(dst, encoded []byte, origLen int, s *ecc.Scratch) ([]byte, uint32, ecc.Report, error) {
	out, _, rep, err := c.Code.DecodeTo(dst, encoded, origLen, s)
	out = inDst(dst, out)
	return out, crc32.Checksum(out, ecc.Castagnoli), rep, err
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
