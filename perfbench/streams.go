package main

import (
	"encoding/json"
	"math/rand"

	"agingfp/internal/arch"
	"agingfp/internal/serve"
)

// streamRand derives one client's generator from the workload seed, so a
// seed fixes every client's request stream whatever the interleaving.
func streamRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1))
}

// resubmitOp is one serve-resubmit request: base design b renumbered so
// that op i of the base is op perm[i] of the body.
type resubmitOp struct {
	base int
	perm []int
	body []byte
}

// resubmitStream generates one client's serve-resubmit requests: fresh
// seeded renumberings that cycle through the bases in shuffled rounds, so
// every base is sent equally often whatever the seed.
type resubmitStream struct {
	rng   *rand.Rand
	docs  []*arch.Document
	round []int
}

func newResubmitStream(seed int64, client int, docs []*arch.Document) *resubmitStream {
	return &resubmitStream{rng: streamRand(seed, client), docs: docs}
}

func (s *resubmitStream) next() (resubmitOp, error) {
	if len(s.round) == 0 {
		s.round = s.rng.Perm(len(s.docs))
	}
	b := s.round[0]
	s.round = s.round[1:]
	perm := s.rng.Perm(len(s.docs[b].Ops))
	body, err := json.Marshal(serve.JobRequest{Design: renumber(s.docs[b], perm)})
	if err != nil {
		return resubmitOp{}, err
	}
	return resubmitOp{base: b, perm: perm, body: body}, nil
}

// renumber moves op i of doc to index perm[i], carrying its edges and
// baseline cell along: the same design under another numbering.
func renumber(doc *arch.Document, perm []int) *arch.Document {
	out := *doc
	out.Ops = make([]arch.DocOp, len(doc.Ops))
	for i, op := range doc.Ops {
		out.Ops[perm[i]] = op
	}
	out.Edges = make([][2]int, len(doc.Edges))
	for k, e := range doc.Edges {
		out.Edges[k] = [2]int{perm[e[0]], perm[e[1]]}
	}
	out.Mappings = make(map[string][][2]int, len(doc.Mappings))
	for name, cells := range doc.Mappings {
		moved := make([][2]int, len(cells))
		for i, c := range cells {
			moved[perm[i]] = c
		}
		out.Mappings[name] = moved
	}
	return &out
}

// deltaEditsPerBase is how many edits each base contributes to the
// delta-edits pool: flips of the ops at evenly spaced positions. The pool
// is the same for every seed and the seed orders it. Seeded edit choice
// made the run's median vary from 14 to 33 ms across five seeds, because
// warm re-solve times span three orders of magnitude across edits.
const deltaEditsPerBase = 4

// deltaOp is one delta-edits request: base b with op `op` flipped
// between ALU and DMU, sent as a delta against the set-up base job.
type deltaOp struct {
	base int
	op   int
	doc  *arch.Document
	body []byte
}

// deltaPool lists the delta-edits requests. Every edit targets a set-up
// base (fan-out, not a chain).
func deltaPool(docs []*arch.Document) ([]deltaOp, error) {
	var pool []deltaOp
	for b, base := range docs {
		n := len(base.Ops)
		for j := 0; j < deltaEditsPerBase && j < n; j++ {
			i := j * n / deltaEditsPerBase
			doc := flipKind(base, i)
			body, err := json.Marshal(serve.DeltaRequest{Design: doc})
			if err != nil {
				return nil, err
			}
			pool = append(pool, deltaOp{base: b, op: i, doc: doc, body: body})
		}
	}
	return pool, nil
}

// flipKind returns doc with op i switched between ALU (0) and DMU (1).
func flipKind(doc *arch.Document, i int) *arch.Document {
	out := *doc
	out.Ops = append([]arch.DocOp(nil), doc.Ops...)
	out.Ops[i].Kind = 1 - out.Ops[i].Kind
	return &out
}
