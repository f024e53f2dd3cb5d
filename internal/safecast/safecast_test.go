package safecast

import (
	"math"
	"testing"
)

func TestRoundTrips(t *testing.T) {
	if U8(255) != 255 || U32(math.MaxUint32) != math.MaxUint32 || U64(7) != 7 {
		t.Fatal("in-range unsigned conversions must be identity")
	}
	if Int(42) != 42 {
		t.Fatal("in-range signed conversions must be identity")
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"U8 negative", func() { U8(-1) }},
		{"U8 overflow", func() { U8(256) }},
		{"U32 negative", func() { U32(-1) }},
		{"U32 overflow", func() { U32(math.MaxUint32 + 1) }},
		{"U64 negative", func() { U64(-1) }},
		{"Int overflow", func() { Int(math.MaxInt + 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}
