package nncell

import "math"

// The code bound (DESIGN.md §17). Beside its float64 coordinates every point
// keeps one byte per coordinate (where the kernels read them: codeChunks),
// its code: the stripe grid of the directories at four levels a stripe, 256
// in all, so that code>>2 is the point's stripe. A fold of the AVX2 kernels
// takes the query's codes once and, for a listed point with codes c,
//
//	B = Σ_j min(127, max(0, |c_j − c_q,j| − 1))²,
//
// an integer that times the least squared code width u² bounds the point's
// squared distance from below: two coordinates whose codes are k > 1 apart
// are more than k − 1 code widths apart, the one code of margin covering
// where in its code each lies (a term is capped where the kernels' byte
// multiply needs it, at half the data space: the bound only gets weaker). A
// point whose bound exceeds the fold's current bound is farther than it, so
// the fold skips its distance. The quantizer's rounding (the difference, the
// scale, the code width taken as the data-space width over 256) moves a
// coordinate by under 2⁻⁴⁰ of a code width, and the rounding of a computed
// Dist2 moves it by under d·2⁻⁵³ of itself; limit takes both off, with room
// to spare, by dividing by u²·(1 − 2⁻²⁰) instead of u² and rounding down. So
// a skipped point's computed Dist2 exceeds the bound, and every fold returns
// what it returned without the codes, bit for bit.
//
// The codes are stored eight to a word and chunk-major: word id of chunk c
// holds the codes of dimensions 8c … 8c+7 of point id, byte k the code of
// dimension 8c+k, 0 past d. So a kernel reads a chunk of any point at one
// scaled index, the point's id.

const (
	codeLevels = 4 * stripes // one byte: 256 codes a dimension
	// maxLimit is the largest code bound limit returns: a bound that is not
	// below it skips nothing. With 127² a coordinate at most, every B of a
	// d ≤ maxCodeDim row is below it.
	maxLimit   = math.MaxInt32
	maxCodeDim = 1 << 15
)

// codeOf maps coordinate x of a dimension whose grid lower bound and scale
// are lo and scale (stripeGrid) to its byte code, clamped to the grid like
// stripe: codeOf(x, g.lo[j], g.scale[j])>>2 == g.stripe(j, x) for every x.
func codeOf(x, lo, scale float64) uint8 {
	t := (x - lo) * scale * 4
	if !(t >= 0) {
		return 0
	}
	if t >= codeLevels {
		return codeLevels - 1
	}
	return uint8(t)
}

// codeChunks is the number of words of codes a point of d coordinates takes:
// none unless d is a multiple of four from 8 on. Only the kernels read codes,
// at d a multiple of four, and at d = 4 a group's exact distances — one pass
// of four coordinates — cost about what its code bounds do, so there the
// bound cannot pay (DESIGN.md §17).
func codeChunks(d int) int {
	if d < 8 || d%4 != 0 {
		return 0
	}
	return (d + 7) / 8
}

// newCodes returns the code chunks of n points of d coordinates, zero.
func newCodes(d, n int) [][]uint64 {
	codes := make([][]uint64, codeChunks(d))
	back := make([]uint64, len(codes)*n)
	for c := range codes {
		codes[c] = back[c*n : (c+1)*n : (c+1)*n]
	}
	return codes
}

// putCodes writes the codes of p as those of point id, growing the chunks
// when id is past them.
func (g stripeGrid) putCodes(codes [][]uint64, id int, p []float64) {
	for c := range codes {
		for len(codes[c]) <= id {
			codes[c] = append(codes[c], 0)
		}
		var w uint64
		for k, x := range p[8*c : min(8*c+8, len(p))] {
			w |= uint64(codeOf(x, g.lo[8*c+k], g.scale[8*c+k])) << (8 * k)
		}
		codes[c][id] = w
	}
}

// codeInv returns the factor limit takes a squared distance to the code bound
// with, for the code widths widths/codeLevels: 1 / (u²·(1 − 2⁻²⁰)) for u the
// narrowest positive one; +Inf, which limits nothing, where the bound is not
// to be used — no dimension of positive width, a u² outside [2⁻⁵⁰⁰, 2⁵⁰⁰]
// (where the distances it bounds would underflow or overflow), or more than
// maxCodeDim dimensions.
func codeInv(widths []float64) float64 {
	u := math.Inf(1)
	for _, w := range widths {
		if w > 0 {
			u = min(u, w/codeLevels)
		}
	}
	if u2 := u * u; len(widths) <= maxCodeDim && u2 >= 0x1p-500 && u2 <= 0x1p500 {
		return 1 / (u2 * (1 - 0x1p-20))
	}
	return math.Inf(1)
}

// limit returns the largest code bound a point within squared distance bound
// of the query may have, ⌊bound·inv⌋, or maxLimit where that is not below it
// (a NaN included): a point whose code bound exceeds it is farther than bound.
func limit(bound, inv float64) int32 {
	t := bound * inv
	if !(t < maxLimit) {
		return maxLimit
	}
	if t < 0 {
		return -1 // a bound below every distance
	}
	return int32(t)
}

// codesOf returns the code chunks of pd for the rows pts holds; it panics if
// pd holds fewer, a directory that does not describe the store, where the
// kernels would read past the chunks.
func (pd *pointDir) codesOf(pts []float64) [][]uint64 {
	rows := len(pts) / max(len(pd.lo), 1)
	for _, chunk := range pd.codes {
		if len(chunk) < rows {
			panic("nncell: the point directory holds codes for fewer rows than the coordinate store")
		}
	}
	return pd.codes
}
