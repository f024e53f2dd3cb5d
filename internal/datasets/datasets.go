// Package datasets generates the synthetic scientific fields that stand
// in for the paper's three SDRBench datasets (Section 4.1.2):
//
//   - CESM: a 2D cloud-fraction-like climate field in [0, 1] with
//     banded large-scale structure and weather-front detail.
//   - Hurricane Isabel: a 3D pressure field with an off-center vortex
//     and a vertical gradient.
//   - NYX: a 3D cosmology temperature field with multiplicative
//     (log-normal-like) structure over many orders of magnitude.
//
// Real SDRBench data is not redistributable inside this offline
// repository; the generators reproduce what the study needs from the
// data — smooth spatial correlation with fine-scale variation at
// dataset-specific magnitudes — and are fully deterministic given a
// seed, so every trial is reproducible. Every product that feeds a sum
// is written float64(a*b), which forbids the compiler to fuse the two
// into one multiply-add: a field is the same numbers on every
// architecture.
package datasets

import (
	"fmt"
	"math"
	"math/rand"
)

// Field is an n-dimensional scalar field in row-major layout.
type Field struct {
	Name string
	Data []float64
	Dims []int // row-major; Dims[0] is the slowest axis
}

// N returns the number of elements.
func (f *Field) N() int { return len(f.Data) }

// SizeBytes returns the in-memory payload size (8 bytes per value).
func (f *Field) SizeBytes() int { return len(f.Data) * 8 }

// String implements fmt.Stringer.
func (f *Field) String() string {
	return fmt.Sprintf("%s%v (%.2f MB)", f.Name, f.Dims, float64(f.SizeBytes())/(1<<20))
}

// CESM generates a 2D cloud-fraction-like field of ny x nx values in
// [0, 1]: latitude bands, a few synoptic "fronts", and grid-scale
// noise. The paper's CLDLOW slice is 1800 x 3600; tests use smaller
// grids.
func CESM(ny, nx int, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, ny*nx)
	// Random synoptic systems: smooth bumps at random centers.
	type bump struct{ cy, cx, r, amp float64 }
	bumps := make([]bump, 12)
	for i := range bumps {
		bumps[i] = bump{
			cy:  rng.Float64(),
			cx:  rng.Float64(),
			r:   0.05 + float64(0.15*rng.Float64()),
			amp: 0.6 * (float64(rng.Float64()) - 0.3), // Float64 inlines a product too
		}
	}
	for y := 0; y < ny; y++ {
		fy := float64(y) / float64(ny)
		band := 0.45 + float64(0.3*math.Cos(float64(3*math.Pi*(fy-0.5)))) // cloudy mid-latitudes
		for x := 0; x < nx; x++ {
			fx := float64(x) / float64(nx)
			v := band + float64(0.1*math.Sin(float64(2*math.Pi*(float64(4*fx)+float64(2*fy)))))
			for _, b := range bumps {
				dy, dx := fy-b.cy, wrapDist(fx, b.cx)
				d2 := (float64(dy*dy) + float64(dx*dx)) / (b.r * b.r)
				if d2 < 9 {
					v += float64(b.amp * math.Exp(-d2))
				}
			}
			v += float64(0.02 * rng.NormFloat64())
			data[y*nx+x] = clamp01(v)
		}
	}
	return &Field{Name: "CESM-CLDLOW", Data: data, Dims: []int{ny, nx}}
}

// Isabel generates a 3D hurricane-pressure-like field of nz x ny x nx
// values around sea-level pressure (hPa): a strong low-pressure vortex
// with radial structure, plus altitude decay. The paper's slice is
// 100 x 500 x 500.
func Isabel(nz, ny, nx int, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, nz*ny*nx)
	cy, cx := 0.45+float64(0.1*rng.Float64()), 0.55+float64(0.1*rng.Float64())
	i := 0
	for z := 0; z < nz; z++ {
		fz := float64(z) / float64(max(nz, 1))
		base := float64(1013.0 * math.Exp(-1.2*fz)) // hydrostatic-ish decay
		for y := 0; y < ny; y++ {
			fy := float64(y) / float64(ny)
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(nx)
				dy, dx := fy-cy, fx-cx
				r := math.Sqrt(float64(dy*dy) + float64(dx*dx))
				// Vortex: deep central depression with spiral bands.
				depress := float64(-90 * math.Exp(-r*r/0.02) * (1 - float64(0.6*fz)))
				spiral := float64(4 * math.Sin(float64(10*r)-float64(6*math.Atan2(dy, dx))) * math.Exp(-r*r/0.08))
				data[i] = base + depress + spiral + float64(0.3*rng.NormFloat64())
				i++
			}
		}
	}
	return &Field{Name: "Isabel-P", Data: data, Dims: []int{nz, ny, nx}}
}

// NYX generates a 3D cosmology-temperature-like field of nz x ny x nx
// values spanning several orders of magnitude (10^3 - 10^7 K),
// log-normally distributed around large-scale filaments. The paper's
// slice is 512^3.
func NYX(nz, ny, nx int, seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, nz*ny*nx)
	// Filaments: sum of a few long-wavelength modes in log space.
	type mode struct{ kz, ky, kx, ph, amp float64 }
	modes := make([]mode, 8)
	for m := range modes {
		modes[m] = mode{
			kz:  float64(1 + rng.Intn(3)),
			ky:  float64(1 + rng.Intn(3)),
			kx:  float64(1 + rng.Intn(3)),
			ph:  2 * math.Pi * rng.Float64(),
			amp: 0.5 + float64(0.5*rng.Float64()),
		}
	}
	i := 0
	for z := 0; z < nz; z++ {
		fz := float64(z) / float64(nz)
		for y := 0; y < ny; y++ {
			fy := float64(y) / float64(ny)
			for x := 0; x < nx; x++ {
				fx := float64(x) / float64(nx)
				logT := 4.5 // ~3*10^4 K
				for _, m := range modes {
					logT += float64(0.35 * m.amp * math.Sin(float64(2*math.Pi*(float64(m.kz*fz)+float64(m.ky*fy)+float64(m.kx*fx)))+m.ph))
				}
				logT += float64(0.05 * rng.NormFloat64())
				data[i] = math.Pow(10, logT)
				i++
			}
		}
	}
	return &Field{Name: "NYX-T", Data: data, Dims: []int{nz, ny, nx}}
}

// StudyFields returns small-scale versions of the three study datasets
// (suitable for tests and CI); pass scale > 1 for larger grids.
func StudyFields(scale int, seed int64) []*Field {
	if scale < 1 {
		scale = 1
	}
	return []*Field{
		CESM(32*scale, 64*scale, seed),
		Isabel(8*scale, 24*scale, 24*scale, seed+1),
		NYX(16*scale, 16*scale, 16*scale, seed+2),
	}
}

// ByName generates one of the three study datasets at the given scale.
func ByName(name string, scale int, seed int64) (*Field, error) {
	if scale < 1 {
		scale = 1
	}
	switch name {
	case "CESM", "cesm":
		return CESM(32*scale, 64*scale, seed), nil
	case "Isabel", "isabel":
		return Isabel(8*scale, 24*scale, 24*scale, seed), nil
	case "NYX", "nyx":
		return NYX(16*scale, 16*scale, 16*scale, seed), nil
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q (want CESM, Isabel, or NYX)", name)
	}
}

func wrapDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
