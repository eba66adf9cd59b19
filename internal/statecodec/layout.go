// Packed state layouts: the codec is deliberately ignorant of the
// machine's state shape — it deals in Slots (one bounded integer each),
// Layouts (an ordered slot schema) and opaque byte keys. The explorer
// owns the traversal order; the codec owns how values become bytes.
package statecodec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Slot describes one bounded integer position of a packed layout: every
// value stored in the slot lies in [Lo, Hi] and is encoded as the
// fixed-width value-Lo in Bits bits. A singleton slot (Lo == Hi) has
// Bits == 0 and occupies no space at all.
type Slot struct {
	Lo, Hi int32
	Bits   uint8
}

// MakeSlot builds the slot covering [lo, hi]; lo must not exceed hi.
func MakeSlot(lo, hi int32) Slot {
	if hi < lo {
		panic(fmt.Sprintf("statecodec: slot bounds [%d, %d] inverted", lo, hi))
	}
	return Slot{Lo: lo, Hi: hi, Bits: uint8(bits.Len32(uint32(hi - lo)))}
}

// Contains reports whether v is encodable in the slot.
func (s Slot) Contains(v int32) bool { return v >= s.Lo && v <= s.Hi }

// Node field slot indices of Layout.Node, in state-encoding order.
const (
	NodeKind = iota
	NodeVal
	NodeKey
	NodeNext
	NodeA
	NodeB
	NodeC
	NodeD
	NodeMark
	NodeLock
	NodeSlots
)

// Thread slot indices of Layout.Thread, in state-encoding order.
const (
	ThreadStatus = iota
	ThreadMethod
	ThreadArg
	ThreadPC
	ThreadRet
	ThreadOps
	ThreadSlots
)

// Layout is the packed-state schema of one program instance: a slot for
// every position the state encoder visits, in its traversal order —
// global variables, the heap watermark, the ten Node fields (repeated
// per live heap cell) and the six thread registers plus locals
// (repeated per thread). The watermark sits at a fixed bit offset (all
// global slots are fixed-width), so equal encodings imply equal
// watermarks, hence identical field boundaries: the packed encoding is
// injective on canonical states and state identity never depends on how
// the layout was derived.
type Layout struct {
	Globals   []Slot
	Watermark Slot
	Node      [NodeSlots]Slot
	Thread    [ThreadSlots]Slot
	Locals    []Slot
}

// MaxBytes bounds the encoded size of any state with the given thread
// count, for buffer pre-sizing.
func (l *Layout) MaxBytes(threads int) int {
	b := int(l.Watermark.Bits)
	for _, s := range l.Globals {
		b += int(s.Bits)
	}
	per := 0
	for _, s := range l.Node {
		per += int(s.Bits)
	}
	b += per * int(l.Watermark.Hi)
	per = 0
	for _, s := range l.Thread {
		per += int(s.Bits)
	}
	for _, s := range l.Locals {
		per += int(s.Bits)
	}
	b += per * threads
	return (b + 7) / 8
}

// BitWriter packs slot values into a byte buffer, least significant
// bits first, a 64-bit word at a time. It is a value type with no
// internal allocation: Reset it onto a reused buffer, Put every slot (or
// PutRecord every record) in layout order, and Finish to flush the
// trailing partial word (zero-padded, so encodings are deterministic).
type BitWriter struct {
	buf []byte
	acc uint64
	n   uint // pending bits in acc, always < 64
}

// Reset points the writer at buf (reusing its capacity).
func (w *BitWriter) Reset(buf []byte) {
	w.buf = buf[:0]
	w.acc = 0
	w.n = 0
}

// outOfRange is the loud failure of an unsound layout: a value outside
// its slot must fail at encode time, exactly as the legacy byte encoder
// does for values outside its window.
func outOfRange(s Slot, v int32) {
	panic(fmt.Sprintf("statecodec: value %d outside slot range [%d, %d]", v, s.Lo, s.Hi))
}

// Put appends v encoded per s. It panics when v is outside the slot's
// range.
func (w *BitWriter) Put(s Slot, v int32) {
	if v < s.Lo || v > s.Hi {
		outOfRange(s, v)
	}
	w.putBits(uint64(uint32(v-s.Lo)), uint(s.Bits))
}

// putBits appends the low nb bits of x (nb <= 64, no bits of x above
// nb), spilling a full little-endian word whenever the accumulator
// fills.
func (w *BitWriter) putBits(x uint64, nb uint) {
	w.acc |= x << w.n
	if w.n+nb < 64 {
		w.n += nb
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
	// The high bits of x that did not fit (none when w.n == 0: Go
	// defines x >> 64 as 0).
	w.acc = x >> (64 - w.n)
	w.n = w.n + nb - 64
}

// PutRecord appends the values of one record: head supplies the first
// len(head) slots and tail the rest, so a register block and a locals
// slice pack together without being copied into one array. Each of the
// record's words is assembled in a register and appended with one
// shift. Range checks run in slot order, so the first out-of-range
// value panics exactly as Put would.
func (w *BitWriter) PutRecord(r *Record, head, tail []int32) {
	ps := r.pack[:len(head)+len(tail)]
	var x uint64
	for i, v := range head {
		p := &ps[i]
		if p.flush != 0 {
			w.putBits(x, uint(p.flush))
			x = 0
		}
		u := uint32(v - p.lo)
		if u > p.span {
			outOfRange(r.slots[i], v)
		}
		x |= uint64(u) << p.shift
	}
	ps = ps[len(head):]
	for i, v := range tail {
		p := &ps[i]
		if p.flush != 0 {
			w.putBits(x, uint(p.flush))
			x = 0
		}
		u := uint32(v - p.lo)
		if u > p.span {
			outOfRange(r.slots[len(head)+i], v)
		}
		x |= uint64(u) << p.shift
	}
	w.putBits(x, r.last)
}

// Finish flushes the pending partial word and returns the buffer.
func (w *BitWriter) Finish() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
	return w.buf
}

// BitReader unpacks slot values written by BitWriter, in the same slot
// order, loading a 64-bit word per read. Like the writer it is
// allocation-free.
type BitReader struct {
	buf []byte
	pos uint // bit offset of the next value
}

// Reset points the reader at an encoded key.
func (r *BitReader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
}

// getBits reads the next nb <= maxGroupBits bits: one unaligned
// little-endian load covers them, because the load starts at most 7
// bits before them.
func (r *BitReader) getBits(nb uint) uint64 {
	i := r.pos >> 3
	var w uint64
	if rest := r.buf[i:]; len(rest) >= 8 {
		w = binary.LittleEndian.Uint64(rest)
	} else {
		for k, c := range rest {
			w |= uint64(c) << (8 * k)
		}
	}
	x := w >> (r.pos & 7) & (1<<nb - 1)
	r.pos += nb
	return x
}

// Get reads the next value per s.
func (r *BitReader) Get(s Slot) int32 {
	if s.Bits == 0 {
		return s.Lo
	}
	return s.Lo + int32(uint32(r.getBits(uint(s.Bits))))
}

// GetRecord reads one record written by PutRecord into head (its first
// len(head) slots) and tail (the rest).
func (r *BitReader) GetRecord(rec *Record, head, tail []int32) {
	ps := rec.pack[:len(head)+len(tail)]
	x := r.getBits(rec.first)
	for i := range head {
		p := &ps[i]
		if p.load != 0 {
			x = r.getBits(uint(p.load))
		}
		head[i] = p.lo + int32(uint32(x>>p.shift)&p.mask)
	}
	ps = ps[len(head):]
	for i := range tail {
		p := &ps[i]
		if p.load != 0 {
			x = r.getBits(uint(p.load))
		}
		tail[i] = p.lo + int32(uint32(x>>p.shift)&p.mask)
	}
}

// maxGroupBits bounds one record word so that a single 64-bit load at
// any bit offset reads it whole.
const maxGroupBits = 56

// Record is a fixed run of slots packed as a unit — the ten fields of a
// heap cell, or a thread's registers followed by its locals. NewRecord
// splits it, in slot order, into words of at most 56 bits; the bits are
// exactly those Put would write slot by slot, so grouping never changes
// an encoding.
type Record struct {
	slots []Slot
	pack  []packSlot
	first uint // width of the first word
	last  uint // width of the last word
}

// packSlot is one slot compiled for PutRecord and GetRecord: v is in
// range iff uint32(v-lo) <= span, and sits at bit shift of its word.
// flush (the writer's) is the width of the word that ends before this
// slot and load (the reader's) the width of the word that starts at it;
// both are 0 inside a word.
type packSlot struct {
	lo          int32
	span, mask  uint32
	shift       uint8
	flush, load uint8
}

// NewRecord builds the record of the given slots.
func NewRecord(slots ...Slot) *Record {
	r := &Record{slots: slots, pack: make([]packSlot, len(slots))}
	var cur uint
	start := 0
	endWord := func(end int) {
		if start == 0 {
			r.first = cur
		} else {
			r.pack[start].load = uint8(cur)
		}
		if end < len(slots) {
			r.pack[end].flush = uint8(cur)
		}
	}
	for i, s := range slots {
		b := uint(s.Bits)
		if cur+b > maxGroupBits {
			endWord(i)
			start, cur = i, 0
		}
		p := &r.pack[i] // keep the flush endWord may just have set
		p.lo, p.span, p.mask, p.shift = s.Lo, uint32(s.Hi-s.Lo), s.mask(), uint8(cur)
		cur += b
	}
	endWord(len(slots))
	r.last = cur
	return r
}

// mask is the slot's value mask.
func (s Slot) mask() uint32 { return uint32(uint64(1)<<s.Bits - 1) }
