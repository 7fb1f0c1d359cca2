package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"youtopia/internal/inbox"
	"youtopia/internal/model"
	"youtopia/internal/storage"
)

// On-disk format. Everything that can be torn by a crash is framed:
//
//	frame   := payloadLen u32le | crc u32le (IEEE, over payload) | payload
//
// A segment file is a 24-byte header followed by frames, one per
// commit batch:
//
//	segment := "YWALSEG1" | schemaHash u64le | firstBatch u64le | frame*
//	batch   := batchIdx uvarint | nWriters uvarint | writer uvarint *
//	         | nRecs uvarint | rec*
//	rec     := writer uvarint | seq uvarint | id uvarint | relIdx uvarint
//	         | op u8 | vals(before) | vals(after)
//	vals    := 0 uvarint                    (absent: nil slice)
//	         | n+1 uvarint | value*n
//	value   := 0 u8 | len uvarint | bytes   (constant)
//	         | 1 u8 | nullID uvarint        (counter null)
//	         | 2 u8 | namespace uvarint | update uvarint | ordinal uvarint
//	                                        (chase-minted null)
//
// A minted null's identifier packs its name into the high bits, so
// its uvarint takes 9 bytes; its three fields take 3 to 5. Logs written
// before kind 2 carry minted nulls as kind 1, which still decodes.
//
// A checkpoint file is a header followed by a single frame:
//
//	ckpt    := "YWALCKP1" | schemaHash u64le | frame
//	payload := batchIdx uvarint | nullFloor uvarint | nTuples uvarint | tuple*
//	         | parked | idFloors
//	tuple   := id uvarint | relIdx uvarint | deleted u8 | vals
//	idFloors:= nRels uvarint | floor uvarint *  (per relation index)
//
// idFloors is each relation's tuple-ID counter: deleted tuples leave
// the committed instance, so the surviving IDs do not bound the minted
// ones. It trails the parked section (see encodeCheckpoint); a
// checkpoint without it kept its tombstones, whose IDs bound the
// counter.
//
// Relations are encoded by index into the schema's sorted name list,
// so recovery requires the same schema; schemaHash (FNV-64a over the
// sorted name/arity pairs) rejects mismatched directories up front.
// The CRC turns any torn or bit-flipped suffix into a clean
// end-of-log: recovery surfaces exactly the durable prefix of whole
// commit batches, never part of one.

const (
	segMagic    = "YWALSEG1"
	ckptMagic   = "YWALCKP1"
	headerLen   = 24
	frameHdrLen = 8 // payloadLen + crc
	kindBatch   = 1
	valConst    = 0
	valNull     = 1
	valMinted   = 2
	ckptHdrLen  = 16 // magic + schemaHash; the frame follows
	segSuffix   = ".seg"
	ckptSuffix  = ".ckpt"
	segPrefix   = "wal-"
	ckptPrefix  = "ckpt-"
	tmpCkptName = "ckpt.tmp"
)

// frameMax bounds a frame's payload length: recovery reads a longer
// frame as a torn tail, so no writer may produce one. It is a variable
// only so tests can reach the bound without building a 1 GiB frame.
var frameMax = 1 << 30

// FrameTooLargeError refuses a frame whose payload exceeds frameMax.
// It is returned before any byte of the frame is written: the commit
// batch is vetoed, or the checkpoint leaves the old lineage in place.
type FrameTooLargeError struct {
	Len, Max int
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("wal: %d-byte frame payload exceeds the %d-byte bound recovery accepts", e.Len, e.Max)
}

// checkFrameLen validates a payload length against frameMax.
func checkFrameLen(n int) error {
	if n > frameMax {
		return &FrameTooLargeError{Len: n, Max: frameMax}
	}
	return nil
}

// codec translates between storage records and their wire form for one
// schema.
type codec struct {
	rels []string
	idx  map[string]int
	hash uint64
}

func newCodec(schema *model.Schema) *codec {
	rels := schema.SortedNames()
	c := &codec{rels: rels, idx: make(map[string]int, len(rels))}
	h := fnv.New64a()
	for i, r := range rels {
		c.idx[r] = i
		fmt.Fprintf(h, "%s/%d\x00", r, schema.Arity(r))
	}
	c.hash = h.Sum64()
	return c
}

// reader decodes one payload; all take methods return an error on
// truncation so corruption inside a CRC-valid frame is still caught.
type reader struct{ b []byte }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("wal: truncated varint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, fmt.Errorf("wal: truncated payload")
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *reader) bytes(n uint64) ([]byte, error) {
	if uint64(len(r.b)) < n {
		return nil, fmt.Errorf("wal: truncated payload")
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

// The encoders below are append-style: each appends its wire form to
// dst and returns the extended slice, so a frame is built in one
// buffer (see appendFrame).

func encodeValue(dst []byte, v model.Value) []byte {
	if space, update, ordinal, ok := v.MintedName(); ok {
		dst = append(dst, valMinted)
		dst = binary.AppendUvarint(dst, uint64(space))
		dst = binary.AppendUvarint(dst, uint64(update))
		return binary.AppendUvarint(dst, uint64(ordinal))
	}
	if v.IsNull() {
		return binary.AppendUvarint(append(dst, valNull), uint64(v.NullID()))
	}
	s := v.ConstValue()
	dst = binary.AppendUvarint(append(dst, valConst), uint64(len(s)))
	return append(dst, s...)
}

func (r *reader) value() (model.Value, error) {
	kind, err := r.byte()
	if err != nil {
		return model.Value{}, err
	}
	switch kind {
	case valConst:
		n, err := r.uvarint()
		if err != nil {
			return model.Value{}, err
		}
		s, err := r.bytes(n)
		if err != nil {
			return model.Value{}, err
		}
		return model.Const(string(s)), nil
	case valNull:
		id, err := r.uvarint()
		if err != nil {
			return model.Value{}, err
		}
		return model.Null(int64(id)), nil
	case valMinted:
		var f [3]uint64
		for i := range f {
			if f[i], err = r.uvarint(); err != nil {
				return model.Value{}, err
			}
		}
		v, err := model.MintedNull(int64(f[0]), int(f[1]), int(f[2]))
		if err != nil {
			return model.Value{}, fmt.Errorf("wal: %w", err)
		}
		return v, nil
	default:
		return model.Value{}, fmt.Errorf("wal: unknown value kind %d", kind)
	}
}

func encodeVals(dst []byte, vals []model.Value) []byte {
	if vals == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(vals))+1)
	for _, v := range vals {
		dst = encodeValue(dst, v)
	}
	return dst
}

func (r *reader) vals() ([]model.Value, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]model.Value, n-1)
	for i := range out {
		if out[i], err = r.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// encodeBatch appends one commit batch's frame payload to dst.
func (c *codec) encodeBatch(dst []byte, batchIdx int64, writers []int, recs []storage.WriteRec) ([]byte, error) {
	dst = append(dst, kindBatch)
	dst = binary.AppendUvarint(dst, uint64(batchIdx))
	dst = binary.AppendUvarint(dst, uint64(len(writers)))
	for _, w := range writers {
		dst = binary.AppendUvarint(dst, uint64(w))
	}
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, rec := range recs {
		ri, ok := c.idx[rec.Rel]
		if !ok {
			return dst, fmt.Errorf("wal: write record for undeclared relation %s", rec.Rel)
		}
		dst = binary.AppendUvarint(dst, uint64(rec.Writer))
		dst = binary.AppendUvarint(dst, uint64(rec.Seq))
		dst = binary.AppendUvarint(dst, uint64(rec.ID))
		dst = binary.AppendUvarint(dst, uint64(ri))
		dst = append(dst, byte(rec.Op))
		dst = encodeVals(dst, rec.Before)
		dst = encodeVals(dst, rec.After)
	}
	return dst, nil
}

// batchRecord is one decoded commit batch.
type batchRecord struct {
	idx     int64
	writers []int
	recs    []storage.WriteRec
}

// decodeBatch parses a frame payload. relNames may be nil when the
// caller only needs the batch index and raw shape (ClonePrefix); with
// a schema codec the relation names are resolved.
func decodeBatch(payload []byte, rels []string) (batchRecord, error) {
	r := reader{payload}
	kind, err := r.byte()
	if err != nil {
		return batchRecord{}, err
	}
	if kind != kindBatch {
		return batchRecord{}, fmt.Errorf("wal: unknown record kind %d", kind)
	}
	var out batchRecord
	idx, err := r.uvarint()
	if err != nil {
		return batchRecord{}, err
	}
	out.idx = int64(idx)
	nw, err := r.uvarint()
	if err != nil {
		return batchRecord{}, err
	}
	out.writers = make([]int, nw)
	for i := range out.writers {
		w, err := r.uvarint()
		if err != nil {
			return batchRecord{}, err
		}
		out.writers[i] = int(w)
	}
	nr, err := r.uvarint()
	if err != nil {
		return batchRecord{}, err
	}
	out.recs = make([]storage.WriteRec, nr)
	for i := range out.recs {
		rec := &out.recs[i]
		var f [4]uint64 // writer, seq, id, relIdx
		for j := range f {
			if f[j], err = r.uvarint(); err != nil {
				return batchRecord{}, err
			}
		}
		rec.Writer = int(f[0])
		rec.Seq = int64(f[1])
		rec.ID = storage.TupleID(f[2])
		ri := int(f[3])
		if rels != nil {
			if ri < 0 || ri >= len(rels) {
				return batchRecord{}, fmt.Errorf("wal: relation index %d out of range", ri)
			}
			rec.Rel = rels[ri]
		}
		op, err := r.byte()
		if err != nil {
			return batchRecord{}, err
		}
		rec.Op = storage.Op(op)
		if rec.Before, err = r.vals(); err != nil {
			return batchRecord{}, err
		}
		if rec.After, err = r.vals(); err != nil {
			return batchRecord{}, err
		}
	}
	if len(r.b) != 0 {
		return batchRecord{}, fmt.Errorf("wal: %d trailing bytes in batch record", len(r.b))
	}
	return out, nil
}

// encodeCheckpoint appends a checkpoint frame payload to dst. The
// parked section — next park ID plus the live parked updates with
// their recorded answers — trails the tuple section, and the
// per-relation tuple-ID floors trail that; decode tolerates the
// absence of either, so older checkpoints keep recovering.
func (c *codec) encodeCheckpoint(dst []byte, batchIdx, nullFloor int64, tuples []storage.CommittedTuple, idFloors []int64, nextParkID int64, parked []ParkedUpdate) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(batchIdx))
	dst = binary.AppendUvarint(dst, uint64(nullFloor))
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	for _, t := range tuples {
		ri, ok := c.idx[t.Rel]
		if !ok {
			return dst, fmt.Errorf("wal: checkpoint tuple for undeclared relation %s", t.Rel)
		}
		dst = binary.AppendUvarint(dst, uint64(t.ID))
		dst = binary.AppendUvarint(dst, uint64(ri))
		var del byte
		if t.Deleted {
			del = 1
		}
		dst = encodeVals(append(dst, del), t.Vals)
	}
	dst = binary.AppendUvarint(dst, uint64(nextParkID))
	dst = binary.AppendUvarint(dst, uint64(len(parked)))
	for _, p := range parked {
		dst = binary.AppendUvarint(dst, uint64(p.ID))
		var err error
		if dst, err = c.encodeOp(dst, p.Op); err != nil {
			return dst, err
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Answers)))
		for _, a := range p.Answers {
			dst = binary.AppendUvarint(dst, uint64(len(a.Context)))
			dst = append(dst, a.Context...)
			dst = binary.AppendUvarint(dst, uint64(a.Option))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(idFloors)))
	for _, f := range idFloors {
		dst = binary.AppendUvarint(dst, uint64(f))
	}
	return dst, nil
}

// checkpointFile renders a whole checkpoint file: magic, schema hash,
// and one frame whose payload is encoded in place behind them.
func (c *codec) checkpointFile(batchIdx, nullFloor int64, tuples []storage.CommittedTuple, idFloors []int64, nextParkID int64, parked []ParkedUpdate) ([]byte, error) {
	buf := binary.LittleEndian.AppendUint64([]byte(ckptMagic), c.hash)
	return appendFrame(buf, func(dst []byte) ([]byte, error) {
		return c.encodeCheckpoint(dst, batchIdx, nullFloor, tuples, idFloors, nextParkID, parked)
	})
}

// checkpointRecord is one decoded checkpoint payload.
type checkpointRecord struct {
	idx        int64
	nullFloor  int64
	tuples     []storage.CommittedTuple
	idFloors   []int64
	nextParkID int64
	parked     []ParkedUpdate
}

func decodeCheckpoint(payload []byte, rels []string) (checkpointRecord, error) {
	r := reader{payload}
	var out checkpointRecord
	idx, err := r.uvarint()
	if err != nil {
		return checkpointRecord{}, err
	}
	out.idx = int64(idx)
	floor, err := r.uvarint()
	if err != nil {
		return checkpointRecord{}, err
	}
	out.nullFloor = int64(floor)
	n, err := r.uvarint()
	if err != nil {
		return checkpointRecord{}, err
	}
	out.tuples = make([]storage.CommittedTuple, n)
	for i := range out.tuples {
		t := &out.tuples[i]
		id, err := r.uvarint()
		if err != nil {
			return checkpointRecord{}, err
		}
		t.ID = storage.TupleID(id)
		ri, err := r.uvarint()
		if err != nil {
			return checkpointRecord{}, err
		}
		if rels != nil {
			if int(ri) >= len(rels) {
				return checkpointRecord{}, fmt.Errorf("wal: relation index %d out of range", ri)
			}
			t.Rel = rels[ri]
		}
		del, err := r.byte()
		if err != nil {
			return checkpointRecord{}, err
		}
		t.Deleted = del != 0
		if t.Vals, err = r.vals(); err != nil {
			return checkpointRecord{}, err
		}
	}
	out.nextParkID = 1
	if len(r.b) == 0 {
		// Pre-inbox checkpoint: no parked section.
		return out, nil
	}
	next, err := r.uvarint()
	if err != nil {
		return checkpointRecord{}, err
	}
	if int64(next) > out.nextParkID {
		out.nextParkID = int64(next)
	}
	np, err := r.uvarint()
	if err != nil {
		return checkpointRecord{}, err
	}
	out.parked = make([]ParkedUpdate, np)
	for i := range out.parked {
		p := &out.parked[i]
		id, err := r.uvarint()
		if err != nil {
			return checkpointRecord{}, err
		}
		p.ID = int64(id)
		if p.Op, err = r.op(rels); err != nil {
			return checkpointRecord{}, err
		}
		na, err := r.uvarint()
		if err != nil {
			return checkpointRecord{}, err
		}
		p.Answers = make([]inbox.Answer, na)
		for j := range p.Answers {
			cl, err := r.uvarint()
			if err != nil {
				return checkpointRecord{}, err
			}
			ctx, err := r.bytes(cl)
			if err != nil {
				return checkpointRecord{}, err
			}
			opt, err := r.uvarint()
			if err != nil {
				return checkpointRecord{}, err
			}
			p.Answers[j] = inbox.Answer{Context: string(ctx), Option: int(opt)}
		}
	}
	if len(r.b) > 0 {
		nf, err := r.uvarint()
		if err != nil {
			return checkpointRecord{}, err
		}
		if rels != nil && int(nf) > len(rels) {
			return checkpointRecord{}, fmt.Errorf("wal: %d ID floors for %d relations", nf, len(rels))
		}
		out.idFloors = make([]int64, nf)
		for i := range out.idFloors {
			f, err := r.uvarint()
			if err != nil {
				return checkpointRecord{}, err
			}
			out.idFloors[i] = int64(f)
		}
	}
	if len(r.b) != 0 {
		return checkpointRecord{}, fmt.Errorf("wal: %d trailing bytes in checkpoint", len(r.b))
	}
	return out, nil
}

// appendFrame appends one length- and CRC-prefixed frame to dst,
// built in place: it reserves the header, lets encode append the
// payload behind it, validates the payload's length, and only then
// fills in the header. On any error dst's contents are unchanged and
// nothing has been written anywhere, so the caller can refuse the
// operation outright.
func appendFrame(dst []byte, encode func([]byte) ([]byte, error)) ([]byte, error) {
	start := len(dst)
	buf, err := encode(append(dst, make([]byte, frameHdrLen)...))
	if err != nil {
		return dst, err
	}
	payload := buf[start+frameHdrLen:]
	if err := checkFrameLen(len(payload)); err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// nextFrame extracts the frame at the head of b. ok is false — a clean
// end-of-log, not an error — when the frame is missing, torn, or fails
// its CRC.
func nextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < 8 {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if uint64(n) > uint64(frameMax) || uint64(len(b)-8) < uint64(n) {
		return nil, nil, false
	}
	payload = b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, nil, false
	}
	return payload, b[8+n:], true
}

// segmentHeader renders the 24-byte segment header.
func segmentHeader(schemaHash uint64, firstBatch int64) []byte {
	hdr := make([]byte, headerLen)
	copy(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], schemaHash)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(firstBatch))
	return hdr
}

// parseSegmentHeader validates a segment header and returns its
// first-batch index.
func parseSegmentHeader(b []byte, wantHash uint64) (int64, error) {
	if len(b) < headerLen || string(b[:8]) != segMagic {
		return 0, fmt.Errorf("wal: bad segment header")
	}
	if h := binary.LittleEndian.Uint64(b[8:16]); wantHash != 0 && h != wantHash {
		return 0, fmt.Errorf("wal: segment written under a different schema (hash %#x, want %#x)", h, wantHash)
	}
	return int64(binary.LittleEndian.Uint64(b[16:24])), nil
}
