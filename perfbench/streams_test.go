package main

import (
	"bytes"
	"math/rand"
	"testing"

	"agingfp/internal/arch"
	"agingfp/internal/canon"
)

func baseDocs(t *testing.T, names ...string) []*arch.Document {
	t.Helper()
	var docs []*arch.Document
	for _, name := range names {
		d, m0 := placedRow(t, name)
		docs = append(docs, arch.ToDocument(d, map[string]arch.Mapping{canon.BaselineMapping: m0}))
	}
	return docs
}

// requestStream is every byte a workload sends for one seed: each
// serve-resubmit client's first bodies and the delta-edits pool in its
// first two pass orders.
func requestStream(t *testing.T, docs []*arch.Document, seed int64) []byte {
	t.Helper()
	var all bytes.Buffer
	for c := 0; c < resubmitClients; c++ {
		s := newResubmitStream(seed, c, docs)
		for i := 0; i < 40; i++ {
			op, err := s.next()
			if err != nil {
				t.Fatal(err)
			}
			all.Write(op.body)
		}
	}
	pool, err := deltaPool(docs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for pass := 0; pass < 2; pass++ {
		for _, i := range rng.Perm(len(pool)) {
			all.Write(pool[i].body)
		}
	}
	return all.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	docs := baseDocs(t, "B1", "B10")
	a, b := requestStream(t, docs, 5), requestStream(t, docs, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 5 produced two different request streams")
	}
	if bytes.Equal(a, requestStream(t, docs, 6)) {
		t.Fatal("seeds 5 and 6 produced the same request stream")
	}
}

func TestShuffledPassesRunEveryIndexEqually(t *testing.T) {
	counts := make([]int, 5)
	orders := shuffledPasses(rand.New(rand.NewSource(1)), len(counts), 3, func(_, i int) { counts[i]++ })
	for i, c := range counts {
		if c != 3 || len(orders) != 3 {
			t.Fatalf("index %d ran %d times in %d passes, want 3", i, c, len(orders))
		}
	}
}
