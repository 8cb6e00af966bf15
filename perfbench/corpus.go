package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
)

// The corpus is built here, from the seed alone: no call into the
// repo's image generators or grammars, so a change to those packages
// cannot silently change what the benchmark measures. Compliance holds
// by construction:
//
//   - every instruction lies inside one bundle, so every bundle start is
//     an instruction boundary;
//   - computed jumps are the policy's masked AND+JMP/CALL pairs;
//   - a direct jump targets a bundle start at a multiple of four
//     bundles, backwards, inside its own 64 KiB window, so it stays in
//     the image and on a boundary wherever whole windows or
//     window-offset-preserving ranges are placed.
//
// Violations are single local splices with a known first offset and
// kind (see splice).

// rng is splitmix64: tiny, fast and identical on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := sha256.Sum256(append([]byte(stream+"\x00"), binary.LittleEndian.AppendUint64(nil, seed)...))
	return &rng{s: binary.LittleEndian.Uint64(h[:8])}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// logUniform draws an integer in [lo, hi] with log-uniform density.
func (r *rng) logUniform(lo, hi int) int {
	v := int(math.Exp(math.Log(float64(lo)) + r.float()*math.Log(float64(hi)/float64(lo))))
	return min(max(v, lo), hi)
}

// windowBytes is the span direct jumps stay within.
const windowBytes = 64 << 10

// layout is the byte-level convention of one policy preset. The values
// are written out here rather than read from the policy package so the
// corpus depends only on this directory.
type layout struct {
	name   string
	bundle int
	// wide selects the REINS-style "AND r, imm32" mask over NaCl's
	// "AND r, imm8".
	wide bool
	imm  uint32
}

var layouts = map[string]layout{
	"nacl-32":  {name: "nacl-32", bundle: 32, imm: 0xe0},
	"nacl-16":  {name: "nacl-16", bundle: 16, imm: 0xf0},
	"reins-16": {name: "reins-16", bundle: 16, wide: true, imm: 0x0ffffff0},
}

// policyNames fixes an iteration order over layouts.
var policyNames = []string{"nacl-32", "nacl-16", "reins-16"}

// pairLen is the size of a masked jump or call pair.
func (l layout) pairLen() int {
	if l.wide {
		return 8
	}
	return 5
}

// putPair writes AND r, mask; JMP r (or CALL r) at dst.
func (l layout) putPair(dst []byte, r byte, call bool) int {
	op := byte(0xe0) // ff /4: jmp r
	if call {
		op = 0xd0 // ff /2: call r
	}
	if l.wide {
		dst[0], dst[1] = 0x81, 0xe0|r
		binary.LittleEndian.PutUint32(dst[2:], l.imm)
		dst[6], dst[7] = 0xff, op|r
		return 8
	}
	dst[0], dst[1], dst[2], dst[3], dst[4] = 0x83, 0xe0|r, byte(l.imm), 0xff, op|r
	return 5
}

// Registers an instruction may name: every general register but esp,
// so no generated instruction moves the stack pointer.
var dataRegs = [...]byte{0, 1, 2, 3, 5, 6, 7}

// Base registers for [base+disp8] operands: mod=01 with esp would need
// a SIB byte, so it is left out.
var baseRegs = [...]byte{0, 1, 2, 3, 5, 6, 7}

// Density classes: the share of bundles that are mostly NOP padding.
// Padding decides how event-sparse the byte stream is, which is what
// separates the stage-1 steppers.
var densities = []struct {
	name string
	pad  float64
}{{"low", 0.05}, {"medium", 0.35}, {"high", 0.9}}

// gen writes compliant code for one layout.
type gen struct {
	r   *rng
	l   layout
	pad float64
}

// fill writes compliant code into dst, which sits at absolute image
// offset base; both base and len(dst) are multiples of the bundle size.
func (g *gen) fill(dst []byte, base int) {
	b := g.l.bundle
	for k := 0; k < len(dst); k += b {
		g.bundle(dst[k:k+b], base+k)
	}
}

// bundle writes one bundle at absolute offset at.
func (g *gen) bundle(dst []byte, at int) {
	b := len(dst)
	if g.r.float() < g.pad {
		// A padding bundle: half the time a short instruction, then NOPs,
		// and one time in eight a masked call ending exactly at the bundle
		// end, the NaCl way of keeping return addresses aligned.
		n := 0
		if g.r.intn(2) == 0 {
			n += g.alu(dst)
		}
		end := b
		if g.r.intn(8) == 0 {
			end = b - g.l.pairLen()
			g.l.putPair(dst[end:], dataRegs[g.r.intn(len(dataRegs))], true)
		}
		for i := n; i < end; i++ {
			dst[i] = 0x90
		}
		return
	}
	for n := 0; n < b; {
		rem := b - n
		switch c := g.r.intn(100); {
		case c < 8 && rem >= g.l.pairLen():
			n += g.l.putPair(dst[n:], dataRegs[g.r.intn(len(dataRegs))], false)
		case c < 14 && rem >= 6:
			n += g.jump(dst[n:], at+n, at)
		case c < 22 && rem >= 3:
			n += g.mem(dst[n:])
		case c < 32 && rem >= 5:
			r := dataRegs[g.r.intn(len(dataRegs))]
			dst[n] = 0xb8 | r // mov r, imm32
			binary.LittleEndian.PutUint32(dst[n+1:], uint32(g.r.next()))
			n += 5
		case c < 38 && rem >= 6:
			r := dataRegs[g.r.intn(len(dataRegs))]
			dst[n], dst[n+1] = 0x81, 0xc0|r // add r, imm32
			binary.LittleEndian.PutUint32(dst[n+2:], uint32(g.r.next()))
			n += 6
		case rem >= 2:
			n += g.alu(dst[n:])
		default:
			dst[n] = 0x40 | dataRegs[g.r.intn(len(dataRegs))] // inc r
			n++
		}
	}
}

// alu writes a two- or three-byte register ALU instruction; dst has
// room for three bytes.
func (g *gen) alu(dst []byte) int {
	d := dataRegs[g.r.intn(len(dataRegs))]
	s := dataRegs[g.r.intn(len(dataRegs))]
	if len(dst) >= 3 && g.r.intn(3) == 0 {
		ops := [...]byte{0xc0, 0xe8, 0xf8} // add, sub, cmp r, imm8
		dst[0], dst[1], dst[2] = 0x83, ops[g.r.intn(len(ops))]|d, byte(g.r.next())
		return 3
	}
	ops := [...]byte{0x89, 0x01, 0x29, 0x31, 0x39, 0x85} // mov add sub xor cmp test
	dst[0], dst[1] = ops[g.r.intn(len(ops))], 0xc0|s<<3|d
	return 2
}

// mem writes a three-byte load or store through [base+disp8].
func (g *gen) mem(dst []byte) int {
	r := dataRegs[g.r.intn(len(dataRegs))]
	base := baseRegs[g.r.intn(len(baseRegs))]
	dst[0] = [...]byte{0x8b, 0x89}[g.r.intn(2)] // mov r, [m] / mov [m], r
	dst[1], dst[2] = 0x40|r<<3|base, byte(g.r.intn(32)*4)
	return 3
}

// jump writes a direct jmp or jcc (rel32) at absolute offset pos, inside
// the bundle starting at at, to a bundle start at a multiple of four
// bundles in [window start, at].
func (g *gen) jump(dst []byte, pos, at int) int {
	step := 4 * g.l.bundle
	lo := at &^ (windowBytes - 1)
	hi := at &^ (step - 1)
	t := lo + step*g.r.intn((hi-lo)/step+1)
	if g.r.intn(2) == 0 {
		dst[0] = 0xe9
		binary.LittleEndian.PutUint32(dst[1:], uint32(int32(t-(pos+5))))
		return 5
	}
	dst[0], dst[1] = 0x0f, 0x80|byte(g.r.intn(16))
	binary.LittleEndian.PutUint32(dst[2:], uint32(int32(t-(pos+6))))
	return 6
}

// Violation kinds the corpus plants, named as core reports them.
const (
	kindIllegal   = "illegal instruction sequence"
	kindOutOfImg  = "direct jump out of image"
	kindNotBound  = "jump into instruction interior"
	kindStraddle  = "bundle boundary inside instruction"
	spliceKinds   = 7
	spliceSingles = 6 // the first six splices occupy one bundle
)

// answer is the known verdict of an image.
type answer struct {
	Safe   bool   `json:"safe"`
	Offset int    `json:"offset"`
	Kind   string `json:"kind,omitempty"`
}

// splice overwrites the bundle(s) at x with violation kind k (one of
// spliceKinds) and returns the violation it causes. Every splice
// causes exactly one violation at the returned offset, and any other
// violation it causes lies at a higher offset or, at the same offset,
// has a kind core orders after it:
//
//   - 0–3: an illegal instruction at x (int 0x80, bare jmp eax, ret,
//     hlt); the lowest kind ordinal, so a jump elsewhere that targets x
//     cannot outrank it;
//   - 4: a direct jump 1 GiB forward, out of any image;
//   - 5: a short jump into the middle of the next instruction, so the
//     violation sits at x+5, which is never a bundle start;
//   - 6: two bundles: an instruction straddling the boundary x+bundle.
//     Only placed where x+bundle is not a multiple of four bundles, so
//     no generated jump targets it.
func splice(dst []byte, x int, l layout, k int) answer {
	b := l.bundle
	n := b
	if k == 6 {
		n = 2 * b
	}
	for i := x; i < x+n; i++ {
		dst[i] = 0x90
	}
	switch k {
	case 0:
		dst[x], dst[x+1] = 0xcd, 0x80
	case 1:
		dst[x], dst[x+1] = 0xff, 0xe0
	case 2:
		dst[x] = 0xc3
	case 3:
		dst[x] = 0xf4
	case 4:
		dst[x] = 0xe9
		binary.LittleEndian.PutUint32(dst[x+1:], 1<<30)
	case 5:
		copy(dst[x:], []byte{0xeb, 0x03, 0xb8, 0, 0, 0, 0})
	case 6:
		copy(dst[x+b-2:], []byte{0xb8, 1, 2, 3, 4})
	}
	return spliceAnswer(x, l, k)
}

// spliceAnswer is the violation splice kind k at x causes.
func spliceAnswer(x int, l layout, k int) answer {
	switch k {
	case 4:
		return answer{Offset: x, Kind: kindOutOfImg}
	case 5:
		return answer{Offset: x + 5, Kind: kindNotBound}
	case 6:
		return answer{Offset: x + l.bundle, Kind: kindStraddle}
	}
	return answer{Offset: x, Kind: kindIllegal}
}

// spliceSite picks a bundle offset in [0, size) where splice kind k
// fits (see splice).
func spliceSite(r *rng, size int, l layout, k int) int {
	nb := size / l.bundle
	if k != 6 {
		return l.bundle * r.intn(nb)
	}
	for {
		i := r.intn(nb - 1)
		if (i+1)%4 != 0 {
			return l.bundle * i
		}
	}
}

// library is a set of 64 KiB compliant pages per (layout, density),
// which images tile. Tiling whole windows keeps every direct jump valid,
// and a prefix of a page is compliant because jumps only go backwards.
type library struct {
	pages map[string][][]byte // key: layout name + "/" + density name
}

const pagesPerClass = 12

func newLibrary(seed uint64, policies []string) *library {
	lib := &library{pages: map[string][][]byte{}}
	for _, p := range policies {
		for _, d := range densities {
			key := p + "/" + d.name
			g := &gen{r: newRNG(seed, "page/"+key), l: layouts[p], pad: d.pad}
			for i := 0; i < pagesPerClass; i++ {
				page := make([]byte, windowBytes)
				g.fill(page, 0)
				lib.pages[key] = append(lib.pages[key], page)
			}
		}
	}
	return lib
}

// digest feeds the library into h in a fixed order.
func (lib *library) digest(h hash.Hash, policies []string) {
	for _, p := range policies {
		for _, d := range densities {
			for _, page := range lib.pages[p+"/"+d.name] {
				h.Write(page)
			}
		}
	}
}

// tile fills dst (a multiple of the bundle size) with pages of one
// class, the page for each window drawn by pick.
func (lib *library) tile(dst []byte, class string, pick *rng) {
	pages := lib.pages[class]
	for off := 0; off < len(dst); off += windowBytes {
		copy(dst[off:], pages[pick.intn(len(pages))])
	}
}
