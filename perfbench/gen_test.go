package main

import (
	"bytes"
	"testing"

	"repro/blast"
)

func fastaBytes(t *testing.T, in *inputs) []byte {
	t.Helper()
	var b bytes.Buffer
	all := append(append([]blast.Sequence(nil), in.db...), in.queries...)
	for _, batch := range in.ingest {
		all = append(all, batch...)
	}
	if err := blast.WriteFASTA(&b, all); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range []string{"batch", "serve", "ingest"} {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fastaBytes(t, a), fastaBytes(t, b)) {
			t.Errorf("%s: seed 7 generated different inputs twice", w)
		}
		if bytes.Equal(fastaBytes(t, a), fastaBytes(t, c)) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

// The query set's total length, and so the work per pass, must not depend
// on the seed.
func TestQueryWorkIndependentOfSeed(t *testing.T) {
	for _, w := range []string{"batch", "serve"} {
		total := -1
		for seed := int64(1); seed <= 3; seed++ {
			in, err := generate(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, q := range in.queries {
				n += len(q.Residues)
			}
			if total >= 0 && n != total {
				t.Errorf("%s: seed %d query residues %d, seed 1 had %d", w, seed, n, total)
			}
			total = n
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := generate("nope", 1); err == nil {
		t.Fatal("generate accepted an unknown workload")
	}
}
