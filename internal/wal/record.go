package wal

import (
	"bytes"
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
	frameMax    = 1 << 30 // sanity bound on payload length
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

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
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

func encodeValue(b *bytes.Buffer, v model.Value) {
	if space, update, ordinal, ok := v.MintedName(); ok {
		b.WriteByte(valMinted)
		putUvarint(b, uint64(space))
		putUvarint(b, uint64(update))
		putUvarint(b, uint64(ordinal))
		return
	}
	if v.IsNull() {
		b.WriteByte(valNull)
		putUvarint(b, uint64(v.NullID()))
		return
	}
	b.WriteByte(valConst)
	s := v.ConstValue()
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
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

func encodeVals(b *bytes.Buffer, vals []model.Value) {
	if vals == nil {
		putUvarint(b, 0)
		return
	}
	putUvarint(b, uint64(len(vals))+1)
	for _, v := range vals {
		encodeValue(b, v)
	}
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

// encodeBatch renders one commit batch as a frame payload.
func (c *codec) encodeBatch(batchIdx int64, writers []int, recs []storage.WriteRec) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(kindBatch)
	putUvarint(&b, uint64(batchIdx))
	putUvarint(&b, uint64(len(writers)))
	for _, w := range writers {
		putUvarint(&b, uint64(w))
	}
	putUvarint(&b, uint64(len(recs)))
	for _, rec := range recs {
		ri, ok := c.idx[rec.Rel]
		if !ok {
			return nil, fmt.Errorf("wal: write record for undeclared relation %s", rec.Rel)
		}
		putUvarint(&b, uint64(rec.Writer))
		putUvarint(&b, uint64(rec.Seq))
		putUvarint(&b, uint64(rec.ID))
		putUvarint(&b, uint64(ri))
		b.WriteByte(byte(rec.Op))
		encodeVals(&b, rec.Before)
		encodeVals(&b, rec.After)
	}
	return b.Bytes(), nil
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
		fields := []*uint64{new(uint64), new(uint64), new(uint64), new(uint64)}
		for _, f := range fields {
			if *f, err = r.uvarint(); err != nil {
				return batchRecord{}, err
			}
		}
		rec.Writer = int(*fields[0])
		rec.Seq = int64(*fields[1])
		rec.ID = storage.TupleID(*fields[2])
		ri := int(*fields[3])
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

// encodeCheckpoint renders a checkpoint frame payload. The parked
// section — next park ID plus the live parked updates with their
// recorded answers — trails the tuple section, and the per-relation
// tuple-ID floors trail that; decode tolerates the absence of either,
// so older checkpoints keep recovering.
func (c *codec) encodeCheckpoint(batchIdx, nullFloor int64, tuples []storage.CommittedTuple, idFloors []int64, nextParkID int64, parked []ParkedUpdate) ([]byte, error) {
	var b bytes.Buffer
	putUvarint(&b, uint64(batchIdx))
	putUvarint(&b, uint64(nullFloor))
	putUvarint(&b, uint64(len(tuples)))
	for _, t := range tuples {
		ri, ok := c.idx[t.Rel]
		if !ok {
			return nil, fmt.Errorf("wal: checkpoint tuple for undeclared relation %s", t.Rel)
		}
		putUvarint(&b, uint64(t.ID))
		putUvarint(&b, uint64(ri))
		if t.Deleted {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		encodeVals(&b, t.Vals)
	}
	putUvarint(&b, uint64(nextParkID))
	putUvarint(&b, uint64(len(parked)))
	for _, p := range parked {
		putUvarint(&b, uint64(p.ID))
		if err := c.encodeOp(&b, p.Op); err != nil {
			return nil, err
		}
		putUvarint(&b, uint64(len(p.Answers)))
		for _, a := range p.Answers {
			putUvarint(&b, uint64(len(a.Context)))
			b.WriteString(a.Context)
			putUvarint(&b, uint64(a.Option))
		}
	}
	putUvarint(&b, uint64(len(idFloors)))
	for _, f := range idFloors {
		putUvarint(&b, uint64(f))
	}
	return b.Bytes(), nil
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

// appendFrame appends a length- and CRC-prefixed frame to buf.
func appendFrame(buf []byte, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...)
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
	if n > frameMax || uint64(len(b)-8) < uint64(n) {
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
