package statecodec

import "fmt"

// The byte-at-a-time bit writer and reader the word-at-a-time BitWriter
// and BitReader replaced, kept verbatim (renamed) as the reference the
// differential tests compare against: keys must stay byte-identical and
// out-of-range values must panic with the same message.

// refBitWriter packs slot values into a byte buffer, least significant
// bits first. It is a value type with no internal allocation: Reset it
// onto a reused buffer, Put every slot in layout order, and Finish to
// flush the trailing partial byte (zero-padded, so encodings are
// deterministic).
type refBitWriter struct {
	buf []byte
	acc uint64
	n   uint32
}

// Reset points the writer at buf (reusing its capacity).
func (w *refBitWriter) Reset(buf []byte) {
	w.buf = buf[:0]
	w.acc = 0
	w.n = 0
}

// Put appends v encoded per s. It panics when v is outside the slot's
// range: an unsound layout must fail loudly at encode time, exactly as
// the legacy byte encoder does for values outside its window.
func (w *refBitWriter) Put(s Slot, v int32) {
	if v < s.Lo || v > s.Hi {
		panic(fmt.Sprintf("statecodec: value %d outside slot range [%d, %d]", v, s.Lo, s.Hi))
	}
	if s.Bits == 0 {
		return
	}
	w.acc |= uint64(uint32(v-s.Lo)) << w.n
	w.n += uint32(s.Bits)
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
}

// Finish flushes the pending partial byte and returns the buffer.
func (w *refBitWriter) Finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.n = 0
	}
	return w.buf
}

// refBitReader unpacks slot values written by refBitWriter, in the same slot
// order. Like the writer it is allocation-free.
type refBitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint32
}

// Reset points the reader at an encoded key.
func (r *refBitReader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.acc = 0
	r.n = 0
}

// Get reads the next value per s.
func (r *refBitReader) Get(s Slot) int32 {
	if s.Bits == 0 {
		return s.Lo
	}
	for r.n < uint32(s.Bits) {
		r.acc |= uint64(r.buf[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
	v := uint32(r.acc & (uint64(1)<<s.Bits - 1))
	r.acc >>= s.Bits
	r.n -= uint32(s.Bits)
	return s.Lo + int32(v)
}
