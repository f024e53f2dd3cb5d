// Package safecast provides checked integer conversions for the
// codec packages. The arcvet mathbits analyzer flags raw conversions
// that can silently change a value (sign flips, narrowing); routing
// them through these helpers turns "trust me, it fits" into an
// enforced invariant — a violated bound panics with a descriptive
// message instead of corrupting an encoded stream.
package safecast

import (
	"fmt"
	"math"
)

// U8 converts a non-negative int that must fit a byte.
func U8(n int) uint8 {
	if n < 0 || n > math.MaxUint8 {
		panic(fmt.Sprintf("safecast: %d does not fit uint8", n))
	}
	return uint8(n)
}

// U32 converts a non-negative int that must fit 32 bits — stream
// header length fields, counts, and dimensions.
func U32(n int) uint32 {
	if n < 0 || n > math.MaxUint32 {
		panic(fmt.Sprintf("safecast: %d does not fit uint32", n))
	}
	return uint32(n)
}

// U64 converts an int that must be non-negative.
func U64(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("safecast: %d is negative", n))
	}
	return uint64(n)
}

// Int converts a uint64 that must fit the platform int.
func Int(n uint64) int {
	if n > math.MaxInt {
		panic(fmt.Sprintf("safecast: %d does not fit int", n))
	}
	return int(n)
}
