package engine

import (
	"bytes"
	"testing"
)

// FuzzDecodePlan hardens the plan codec against the replicated store's
// failure modes: torn writes, stale versions, hand-edited values. The
// invariant: DecodePlan either rejects the bytes with an error or returns
// a plan whose schedule re-encodes and re-decodes to the same placements —
// never a panic, never a half-built plan.
func FuzzDecodePlan(f *testing.F) {
	job, stats := ShapeJob(2, 2, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	for n := 0; n <= 1; n++ {
		p, err := eng.Plan(n)
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodePlan(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"Version":1}`))
	f.Add([]byte(`{"Version":99,"Schedule":{}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePlan(data)
		if err != nil {
			return // rejected, fine
		}
		if p == nil || p.Schedule == nil || len(p.Schedule.Placements) == 0 {
			t.Fatalf("DecodePlan accepted bytes but produced a hollow plan: %+v", p)
		}
		re, err := EncodePlan(p)
		if err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		back, err := DecodePlan(re)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v", err)
		}
		a, err := EncodePlan(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, a) {
			t.Fatal("encode(decode(encode(p))) is not a fixed point")
		}
	})
}

// FuzzDecodeProgram is the Program-codec counterpart of FuzzDecodePlan:
// remote executors decode these artifacts straight out of the replicated
// store, so arbitrary bytes must either be rejected or produce a fully
// validated, re-encodable Program — never a panic, never a half-built
// artifact that executes.
func FuzzDecodeProgram(f *testing.F) {
	job, stats := ShapeJob(2, 2, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	for n := 0; n <= 1; n++ {
		p, err := eng.Program(n)
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeProgram(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range malformedPrograms(f) {
		f.Add(data)
	}
	// An optimizer with no join, and one naming two (JSON keeps the last).
	f.Add([]byte(`{"Version":2,"Shape":{"DP":1,"PP":1,"MB":1,"Iter":1},"Durations":{"F":1,"BInput":1,"BWeight":1,"Opt":1},` +
		`"Instrs":[{"Op":{"MB":0,"Type":0}},{"Op":{"MB":0,"Type":1},"Deps":[{"From":0,"Kind":2}]},{"Op":{"MB":-1,"Type":4}}],` +
		`"Streams":[{"Worker":{"Stage":0,"Pipeline":0},"IDs":[0,1,2]}]}`))
	f.Add([]byte(`{"Version":2,"Shape":{"DP":1,"PP":1,"MB":1,"Iter":1},"Durations":{"F":1,"BInput":1,"BWeight":1,"Opt":1},` +
		`"Instrs":[{"Op":{"MB":0,"Type":0}},{"Op":{"MB":0,"Type":1},"Deps":[{"From":0,"Kind":2}]},{"Op":{"MB":-1,"Type":4},"Join":1,"Join":2}],` +
		`"Joins":[{"Iter":0,"Stage":0,"Contribs":[1]},{"Iter":0,"Stage":0,"Contribs":[1]}],` +
		`"Streams":[{"Worker":{"Stage":0,"Pipeline":0},"IDs":[0,1,2]}]}`))
	f.Add([]byte(v1Program))
	f.Add([]byte(`{"Version":2}`))
	f.Add([]byte(`{"Version":2,"Shape":{"DP":2,"PP":2,"MB":4,"Iter":1},"Instrs":[{"Op":{}}]}`))
	f.Add([]byte(`{"Version":99,"Instrs":[{}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return // rejected, fine
		}
		if p == nil || len(p.Instrs) == 0 || len(p.Streams) == 0 {
			t.Fatalf("DecodeProgram accepted bytes but produced a hollow program: %+v", p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodeProgram returned an invalid program: %v", err)
		}
		re, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("accepted program does not re-encode: %v", err)
		}
		back, err := DecodeProgram(re)
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v", err)
		}
		a, err := EncodeProgram(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, a) {
			t.Fatal("encode(decode(encode(p))) is not a fixed point")
		}
	})
}
