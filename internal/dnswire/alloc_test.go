package dnswire

import (
	"testing"

	"dnstime/internal/ipv4"
)

// Committed allocation budgets for the wire hot path. The campaign engine
// encodes and decodes millions of DNS messages per campaign through reused
// buffers and scratch messages; these gates pin the "allocates nothing once
// warm" contract so a refactor cannot silently reintroduce per-message
// garbage.
const (
	allocBudgetEncode = 0 // AppendMarshal into a reused buffer
	allocBudgetDecode = 0 // Decoder.UnmarshalInto with a warm intern table
)

func TestAllocBudgetEncodeDecode(t *testing.T) {
	m := NewQuery(0x1234, "pool.ntp.org", TypeA, true)
	m.Answers = append(m.Answers, RR{
		Name: "pool.ntp.org", Type: TypeA, Class: ClassIN, TTL: 150,
		Addr: ipv4.MustParseAddr("192.0.2.1"),
	})
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	var buf []byte
	encAvg := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = m.AppendMarshal(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	// AppendMarshal borrows its encoder from a sync.Pool. Under the race
	// detector Pool.Put drops one item in four on purpose, so the encoder
	// is sometimes rebuilt and the encode count reads about one. That is
	// an artefact of the race build, not a leak; the standard library
	// guards its Pool-backed allocation tests the same way.
	if !raceEnabled && encAvg > allocBudgetEncode {
		t.Errorf("encode: %.1f allocs per AppendMarshal into reused buffer, budget %d", encAvg, allocBudgetEncode)
	}

	var dec Decoder
	var rx Message
	// Warm the decoder's name-intern table before measuring.
	if err := dec.UnmarshalInto(&rx, wire); err != nil {
		t.Fatal(err)
	}
	decAvg := testing.AllocsPerRun(200, func() {
		if err := dec.UnmarshalInto(&rx, wire); err != nil {
			t.Fatal(err)
		}
	})
	if decAvg > allocBudgetDecode {
		t.Errorf("decode: %.1f allocs per UnmarshalInto with warm intern table, budget %d", decAvg, allocBudgetDecode)
	}
}
