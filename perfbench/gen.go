package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/blast"
	"repro/internal/alphabet"
	"repro/internal/seqgen"
)

// Input sizes per workload. They are fixed here, not derived from the host,
// so a baseline and a candidate always search the same amount of data.
const (
	batchDBSeqs        = 2000
	batchQueries       = 24
	batchBlockResidues = 128 << 10 // ~720k residues / 128k => 6 index blocks

	serveDBSeqs   = 3000
	serveQueries  = 64
	shortQueryMin = 60
	shortQueryMax = 150

	ingestBaseSeqs   = 2000
	ingestBatchSeqs  = 50
	ingestHomologs   = 5  // planted probe homologs per ingest batch
	ingestMaxBatches = 32 // one per 2 s: enough for a 60 s run
)

// inputs is everything one workload run feeds the system. Every field is a
// pure function of the workload name and the seed.
type inputs struct {
	db      []blast.Sequence
	queries []blast.Sequence
	ingest  [][]blast.Sequence // ingest workload only
}

func named(prefix string, seqs [][]alphabet.Code) []blast.Sequence {
	out := make([]blast.Sequence, len(seqs))
	for i, s := range seqs {
		out[i] = blast.Sequence{Name: fmt.Sprintf("%s%06d", prefix, i), Residues: alphabet.String(s)}
	}
	return out
}

// stratifiedLogNormal returns n lengths at the (i+0.5)/n quantiles of the
// profile's length distribution. Using fixed quantiles instead of random
// draws keeps the total query length — and so the work per batch — the same
// for every seed; the seed still picks which sequences the queries come from.
func stratifiedLogNormal(p seqgen.Profile, n int) []int {
	out := make([]int, n)
	for i := range out {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		l := int(math.Round(math.Exp(p.LogMu + p.LogSigma*z)))
		out[i] = min(max(l, p.MinLen), p.MaxLen)
	}
	return out
}

// stratifiedUniform spreads n lengths evenly over [lo, hi].
func stratifiedUniform(lo, hi, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + int(float64(hi-lo)*(float64(i)+0.5)/float64(n))
	}
	return out
}

// sampleQueries draws one database-derived query per requested length, in a
// seed-shuffled order.
func sampleQueries(g *seqgen.Generator, rng *rand.Rand, db [][]alphabet.Code, lengths []int) [][]alphabet.Code {
	rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	out := make([][]alphabet.Code, len(lengths))
	for i, l := range lengths {
		out[i] = g.Queries(db, 1, l)[0]
	}
	return out
}

// generate builds the inputs of one workload from its seed.
func generate(workload string, seed int64) (*inputs, error) {
	prof := seqgen.UniprotProfile()
	g := seqgen.New(prof, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch workload {
	case "batch":
		db := g.Database(batchDBSeqs)
		qs := sampleQueries(g, rng, db, stratifiedLogNormal(prof, batchQueries))
		return &inputs{db: named("sp", db), queries: named("q", qs)}, nil
	case "serve":
		db := g.Database(serveDBSeqs)
		qs := sampleQueries(g, rng, db, stratifiedUniform(shortQueryMin, shortQueryMax, serveQueries))
		return &inputs{db: named("sp", db), queries: named("q", qs)}, nil
	case "ingest":
		db := g.Database(ingestBaseSeqs)
		qs := sampleQueries(g, rng, db, stratifiedUniform(shortQueryMin, shortQueryMax, serveQueries))
		in := &inputs{db: named("sp", db), queries: named("q", qs)}
		for b := 0; b < ingestMaxBatches; b++ {
			batch := named(fmt.Sprintf("ing%02d_", b), g.Database(ingestBatchSeqs))
			// Plant mutated copies of probe queries so the new delta tiers
			// contribute hits to the searches running beside the ingest.
			for k := 0; k < ingestHomologs; k++ {
				probe := qs[rng.Intn(len(qs))]
				batch[k].Residues = plantHomolog(g, rng, probe)
			}
			in.ingest = append(in.ingest, batch)
		}
		return in, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want batch, serve or ingest)", workload)
}

// plantHomolog returns a background flank, a copy of probe with 20% of its
// residues substituted, and another flank.
func plantHomolog(g *seqgen.Generator, rng *rand.Rand, probe []alphabet.Code) string {
	core := append([]alphabet.Code(nil), probe...)
	filler := g.Sequence(len(core))
	for i := range core {
		if rng.Float64() < 0.20 {
			core[i] = filler[i]
		}
	}
	s := append(g.Sequence(20+rng.Intn(80)), core...)
	s = append(s, g.Sequence(20+rng.Intn(80))...)
	return alphabet.String(s)
}
