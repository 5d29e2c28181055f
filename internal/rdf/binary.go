package rdf

// Binary serialisation of a graph, used by the persistent state store's
// snapshots (package store). Unlike the N-Triples text export, the binary
// form interns every term once in a string table and stores triples as
// varint index triples, so warehouse-scale graphs (hundreds of thousands
// of triples) encode and decode in milliseconds.
//
// Crucially the encoding preserves triple *insertion order* exactly: the
// graph's iteration order is insertion order, SODA's ranked output depends
// on it, and a snapshot-loaded graph must produce byte-identical rankings
// to the graph it was taken from.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// binaryMaxTerms caps the term-table size a reader will allocate, guarding
// decode against corrupt or adversarial headers.
const binaryMaxTerms = 1 << 26

// WriteBinary serialises g to w: a term table in first-appearance order
// followed by the triples as term-table indices, in insertion order.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)

	// The table numbers the dictionary's terms in the order the triples
	// first mention them: slot[id] is a term's table index + 1, 0 while
	// it has not appeared.
	terms := make([]ID, 0, g.dict.Len())
	slot := make([]uint64, g.dict.Len()+1)
	intern := func(id ID) uint64 {
		if slot[id] == 0 {
			terms = append(terms, id)
			slot[id] = uint64(len(terms))
		}
		return slot[id] - 1
	}
	type encTriple struct{ s, p, o uint64 }
	enc := make([]encTriple, len(g.triples))
	for i, t := range g.triples {
		enc[i] = encTriple{intern(t[0]), intern(t[1]), intern(t[2])}
	}

	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}

	if err := writeUvarint(uint64(len(terms))); err != nil {
		return err
	}
	for _, id := range terms {
		t := g.dict.Term(id)
		if err := bw.WriteByte(byte(t.Kind())); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(t.Value()))); err != nil {
			return err
		}
		if _, err := bw.WriteString(t.Value()); err != nil {
			return err
		}
	}
	if err := writeUvarint(uint64(len(enc))); err != nil {
		return err
	}
	for _, tr := range enc {
		if err := writeUvarint(tr.s); err != nil {
			return err
		}
		if err := writeUvarint(tr.p); err != nil {
			return err
		}
		if err := writeUvarint(tr.o); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a graph written by WriteBinary into a fresh Graph,
// reproducing the original insertion order.
//
// Every count in the input is checked against the bytes left to read
// before it sizes an allocation: a term takes at least two bytes (kind and
// length) and a triple at least three (one varint per position), so a
// header claiming more than the input can hold is corrupt. A reader that
// reports its remaining length (bytes.Reader, the snapshot path) is read
// in place; any other is read fully first.
func ReadBinary(r io.Reader) (*Graph, error) {
	lr, ok := r.(interface{ Len() int })
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("rdf: binary read: %w", err)
		}
		dr := bytes.NewReader(data)
		r, lr = dr, dr
	}
	br := bufio.NewReader(r)
	remaining := func() uint64 { return uint64(lr.Len() + br.Buffered()) }

	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rdf: binary term count: %w", err)
	}
	if nTerms > binaryMaxTerms || nTerms > remaining()/2 {
		return nil, fmt.Errorf("rdf: binary term count %d exceeds the remaining input", nTerms)
	}
	terms := make([]Term, nTerms)
	for i := range terms {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("rdf: binary term %d kind: %w", i, err)
		}
		if Kind(kind) != IRI && Kind(kind) != Text {
			return nil, fmt.Errorf("rdf: binary term %d: invalid kind %d", i, kind)
		}
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("rdf: binary term %d length: %w", i, err)
		}
		if l > remaining() {
			return nil, fmt.Errorf("rdf: binary term %d length %d exceeds the remaining input", i, l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("rdf: binary term %d value: %w", i, err)
		}
		if Kind(kind) == Text {
			terms[i] = NewText(string(b))
		} else {
			terms[i] = NewIRI(string(b))
		}
	}

	nTriples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("rdf: binary triple count: %w", err)
	}
	if nTriples > remaining()/3 {
		return nil, fmt.Errorf("rdf: binary triple count %d exceeds the remaining input", nTriples)
	}

	// Bulk construction: the term table is interned once, in order, so a
	// term's dict ID is its table index + 1 and per-triple work touches
	// only integer indices. This is the warm-start hot path — going
	// through Add's Term-keyed hashing per triple is several times
	// slower on warehouse-scale graphs, so the decode makes two passes:
	// read and validate every triple while counting per-node degrees and
	// per-predicate sizes, then carve exactly-sized adjacency and byPred
	// slices out of three contiguous backing arrays. No index slice ever
	// reallocates, and the whole graph costs a handful of allocations
	// instead of one per node.
	g := &Graph{
		dict: NewDict(),
		seen: make(map[[3]ID]struct{}, nTriples),
	}
	for _, t := range terms {
		g.dict.Intern(t)
	}
	if g.dict.Len() != len(terms) {
		// Intern dedups, so a duplicated table entry would break the
		// "dict ID == table index + 1" identity the triple decode relies
		// on — later lookups would panic instead of failing the decode.
		return nil, fmt.Errorf("rdf: binary term table contains duplicates")
	}
	readID := func() (ID, error) {
		i, err := binary.ReadUvarint(br)
		if err != nil {
			return NoID, err
		}
		if i >= uint64(len(terms)) {
			return NoID, fmt.Errorf("term index %d out of range", i)
		}
		return ID(i) + 1, nil
	}

	// Pass 1: read, validate, deduplicate, count.
	nIDs := len(terms) + 1 // IDs are 1-based
	outCnt := make([]int32, nIDs)
	inCnt := make([]int32, nIDs)
	predCnt := make([]int32, nIDs)
	keys := make([][3]ID, 0, nTriples)
	for i := uint64(0); i < nTriples; i++ {
		sid, err := readID()
		if err != nil {
			return nil, fmt.Errorf("rdf: binary triple %d subject: %w", i, err)
		}
		pid, err := readID()
		if err != nil {
			return nil, fmt.Errorf("rdf: binary triple %d predicate: %w", i, err)
		}
		oid, err := readID()
		if err != nil {
			return nil, fmt.Errorf("rdf: binary triple %d object: %w", i, err)
		}
		if !g.dict.Term(sid).IsIRI() || !g.dict.Term(pid).IsIRI() {
			return nil, fmt.Errorf("rdf: binary triple %d: subject/predicate must be IRIs", i)
		}
		key := [3]ID{sid, pid, oid}
		if _, dup := g.seen[key]; dup {
			continue // a valid writer never emits duplicates; tolerate them
		}
		g.seen[key] = struct{}{}
		keys = append(keys, key)
		outCnt[sid]++
		inCnt[oid]++
		predCnt[pid]++
	}

	// Carve per-ID slices (len 0, exact cap) out of shared backing arrays.
	carveAdj := func(cnt []int32) []adjacency {
		backing := make([]edge, len(keys))
		adjs := make([]adjacency, nIDs)
		off := 0
		for id := 1; id < nIDs; id++ {
			c := int(cnt[id])
			adjs[id].edges = backing[off : off : off+c]
			off += c
		}
		return adjs
	}
	g.out = carveAdj(outCnt)
	g.in = carveAdj(inCnt)
	predBacking := make([]int32, len(keys))
	g.byPred = make([][]int32, nIDs)
	for id, off := 1, 0; id < nIDs; id++ {
		c := int(predCnt[id])
		g.byPred[id] = predBacking[off : off : off+c]
		off += c
	}
	g.triples = make([][3]ID, 0, len(keys))

	// Pass 2: fill every index in insertion order. The indexes are sized,
	// so addInterned only appends within capacity.
	for _, key := range keys {
		g.addInterned(key)
	}
	return g, nil
}
