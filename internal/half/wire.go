package half

import (
	"math"
	"slices"
)

// Wire format: the half-width payload encoding the distributed SSE
// exchanges ship through the simulated MPI runtime. The comm layer's
// currency is []complex128 (16 bytes per word), so the encoder packs four
// binary16 split-complex values — eight Float16 bit patterns — into the
// 128 bits of one wire word, plus one header word per segment carrying
// the dynamic normalization factor of §5.4.
//
// Payloads are segmented: a segment is the per-(point, atom) block unit
// the exchange pack loops append (2·Norb² electron elements, 2·9·(Nb+1)
// phonon elements), and each segment gets its own power-of-two
// normalization factor from its magnitude. Segments whose factor cannot
// be represented — the scale itself over- or underflows float64, or the
// data carries Inf/NaN — fall back to verbatim fp64 passthrough, so a
// single pathological point degrades only its own block, never the whole
// message. For a segment of n elements the half format costs
// 1 + ⌈n/4⌉ wire words against n words in fp64: a 8/3 ≈ 2.7× reduction
// already at Norb = 2 and asymptotically 4×.
const (
	// wireHalf marks a segment holding packed binary16 quads; the header
	// word is complex(scale, 0) with scale > 0.
	// wireFP64 marks a verbatim fp64 passthrough segment; the header word
	// is complex(0, 1).
	wireQuad = 4 // complex values per packed wire word
)

// wireWords returns the wire words one half-format segment of n complex
// values occupies (header + packed quads) — the prediction the analytic
// communication model scales its fp64 volumes by.
func wireWords(n int) int { return 1 + (n+wireQuad-1)/wireQuad }

// wireScale derives the segment normalization factor. ok = false demands
// the fp64 fallback: the magnitudes are non-finite, or the power-of-two
// factor mapping them into binary16 range (or its algebraic inverse)
// leaves the float64 exponent range.
func wireScale(maxAbs float64) (scale float64, ok bool) {
	if maxAbs == 0 {
		return 1, true
	}
	if math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return 1, false
	}
	s := ScaleFor(maxAbs)
	if s == 0 || math.IsInf(s, 0) || 1/s == 0 || math.IsInf(1/s, 0) {
		return 1, false
	}
	return s, true
}

// WireEncode packs src — whose length must be a multiple of seg — into a
// fresh wire buffer; AppendWireEncode is the form that reuses one.
func WireEncode(src []complex128, seg int) []complex128 {
	return AppendWireEncode(nil, src, seg)
}

// AppendWireEncode appends the wire encoding of src to dst and returns
// the extended buffer. One segment is appended at a time, so mixed
// half/fp64 segments coexist in one message.
func AppendWireEncode(dst, src []complex128, seg int) []complex128 {
	if seg <= 0 {
		panic("half: WireEncode segment length must be positive")
	}
	if len(src)%seg != 0 {
		panic("half: WireEncode payload not a multiple of the segment length")
	}
	dst = slices.Grow(dst, len(src)/seg*wireWords(seg)) // exact unless a segment falls back
	for off := 0; off < len(src); off += seg {
		dst = appendSegment(dst, src[off:off+seg])
	}
	return dst
}

// WireDecode expands a WireEncode buffer back into full complex128
// values, walking the per-segment headers. seg must match the encoder's.
func WireDecode(wire []complex128, seg int) []complex128 {
	return AppendWireDecode(nil, wire, seg)
}

// AppendWireDecode appends the decoded values of wire to dst and returns
// the extended buffer.
func AppendWireDecode(dst, wire []complex128, seg int) []complex128 {
	if seg <= 0 {
		panic("half: WireDecode segment length must be positive")
	}
	dst = slices.Grow(dst, len(wire)/wireWords(seg)*seg) // exact unless a segment fell back
	pos := 0
	for pos < len(wire) {
		h := wire[pos]
		pos++
		if imag(h) != 0 { // fp64 passthrough
			if pos+seg > len(wire) {
				panic("half: WireDecode truncated fp64 segment")
			}
			dst = append(dst, wire[pos:pos+seg]...)
			pos += seg
			continue
		}
		words := (seg + wireQuad - 1) / wireQuad
		if pos+words > len(wire) {
			panic("half: WireDecode truncated half segment")
		}
		invScale := 1 / real(h)
		dst = decodeQuads(dst, wire[pos:pos+words], seg, invScale)
		pos += words
	}
	return dst
}

// WireFallbacks walks an encoded wire buffer's segment headers and counts
// the fp64 passthrough segments — the per-message fallback-block tally the
// mixed-precision telemetry reports. seg must match the encoder's.
func WireFallbacks(wire []complex128, seg int) int {
	if seg <= 0 {
		panic("half: WireFallbacks segment length must be positive")
	}
	n := 0
	pos := 0
	for pos < len(wire) {
		h := wire[pos]
		pos++
		if imag(h) != 0 {
			n++
			pos += seg
			continue
		}
		pos += (seg + wireQuad - 1) / wireQuad
	}
	return n
}

// segmentScale scans one segment and derives its normalization factor.
// ok = false demands the fp64 fallback. Unlike MaxAbsComplex (which
// skips NaN components), the scan detects NaN directly so a NaN-only
// segment ships verbatim as documented.
func segmentScale(src []complex128) (scale float64, ok bool) {
	var mx float64
	for _, v := range src {
		re, im := math.Abs(real(v)), math.Abs(imag(v))
		if math.IsNaN(re) || math.IsNaN(im) {
			return 1, false
		}
		if re > mx {
			mx = re
		}
		if im > mx {
			mx = im
		}
	}
	return wireScale(mx) // Inf lands here as mx = +Inf and is rejected
}

// appendSegment encodes one segment: magnitude scan, format decision,
// header, payload.
func appendSegment(out []complex128, src []complex128) []complex128 {
	scale, ok := segmentScale(src)
	if !ok {
		out = append(out, complex(0, 1))
		return append(out, src...)
	}
	out = append(out, complex(scale, 0))
	for off := 0; off < len(src); off += wireQuad {
		end := off + wireQuad
		if end > len(src) {
			end = len(src)
		}
		out = append(out, packQuad(src[off:end], scale))
	}
	return out
}

// packQuad quantizes up to four complex values (scaled, clamped,
// round-to-nearest-even binary16) into one wire word: values 0–1 in the
// real half's bits, values 2–3 in the imaginary half's.
func packQuad(vs []complex128, scale float64) complex128 {
	var lo, hi uint64
	for j, v := range vs {
		re := uint64(fromFloat64(clamp(real(v) * scale)))
		im := uint64(fromFloat64(clamp(imag(v) * scale)))
		bits := re | im<<16
		if j < 2 {
			lo |= bits << (32 * uint(j))
		} else {
			hi |= bits << (32 * uint(j-2))
		}
	}
	return complex(math.Float64frombits(lo), math.Float64frombits(hi))
}

// decodeQuads appends n decoded values from packed wire words,
// multiplying by the inverse normalization factor.
func decodeQuads(out []complex128, words []complex128, n int, invScale float64) []complex128 {
	for w := 0; w < len(words); w++ {
		lo := math.Float64bits(real(words[w]))
		hi := math.Float64bits(imag(words[w]))
		for j := 0; j < wireQuad && w*wireQuad+j < n; j++ {
			var bits uint64
			if j < 2 {
				bits = lo >> (32 * uint(j))
			} else {
				bits = hi >> (32 * uint(j-2))
			}
			re := Float16(bits & 0xffff).Float64()
			im := Float16(bits >> 16 & 0xffff).Float64()
			out = append(out, complex(re*invScale, im*invScale))
		}
	}
	return out
}
