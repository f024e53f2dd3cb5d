package arc

// Custom ECC registration — implements the paper's future-work API:
// "an API to further simplify the addition of custom ECC algorithms
// and constraints." Registered families participate in training,
// constraint optimization, and self-describing decode exactly like the
// built-in methods.

import (
	"repro/internal/core"
	"repro/internal/ecc"
)

// CustomMethodBase is the first method id available to custom codes
// (ids below it are ARC's built-ins).
const CustomMethodBase = core.CustomMethodBase

// CustomMethod describes a custom ECC family; see core.CustomMethod.
type CustomMethod = core.CustomMethod

// CustomBuilder constructs code instances for a custom family.
type CustomBuilder = core.CustomBuilder

// RegisterCustomMethod adds an ECC family to ARC's configuration
// space. Engines initialized afterwards train and select it under the
// usual constraints, and Decode dispatches to it via the container's
// method id.
func RegisterCustomMethod(m CustomMethod) error {
	return core.RegisterCustomMethod(m)
}

// UnregisterCustomMethod removes a previously registered family; the
// built-in families stay.
func UnregisterCustomMethod(id ecc.Method) {
	core.UnregisterCustomMethod(id)
}
