package msglog

import (
	"bytes"
	"math/rand"
	"testing"

	"fmi/internal/bufpool"
)

// liveChunks counts the arena buffers the log holds: the chunks of
// every stream.
func liveChunks(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := range l.streams {
		n += l.streams[i].chunks.len()
	}
	return n
}

// pattern fills a payload that names its own sequence number, so a
// byte read from a recycled chunk cannot pass for the original.
func pattern(seq uint64, n int) []byte {
	const period = 251
	b := make([]byte, n)
	for i := 0; i < n && i < period; i++ {
		b[i] = byte(seq*31 + uint64(i)*7 + 1)
	}
	for k := period; k < n; k *= 2 {
		copy(b[k:], b[:k])
	}
	return b
}

// model is the reference log: plain per-destination lists of entries
// with their own payload copies.
type model struct {
	seqs []uint64
	ents [][]Entry
}

func (m *model) resize(n int) {
	seqs, ents := make([]uint64, n), make([][]Entry, n)
	copy(seqs, m.seqs)
	copy(ents, m.ents)
	m.seqs, m.ents = seqs, ents
}

func (m *model) after(dst int, seq uint64) []Entry {
	ents := m.ents[dst]
	i := 0
	for i < len(ents) && ents[i].Seq <= seq {
		i++
	}
	return ents[i:]
}

func (m *model) stats() (entries, bytes int) {
	for _, ents := range m.ents {
		entries += len(ents)
		for _, e := range ents {
			bytes += len(e.Data)
		}
	}
	return entries, bytes
}

// TestLogMatchesModel drives random Record/Trim/After/Reset/Resize/
// RestoreSendSeqs sequences with payloads of 0 B–200 KiB
// against the reference model: sequence numbers, After's contents and
// Stats must agree, and the debug arena must have exactly as many
// buffers out as the log holds chunks — none after teardown.
func TestLogMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arena := bufpool.NewDebug()
		n := 1 + rng.Intn(5)
		l := NewPooled(n, arena)
		m := &model{}
		m.resize(n)
		size := func() int {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return 1 + rng.Intn(64)
			case 2:
				return 1 + rng.Intn(chunkSize)
			default:
				return 1 + rng.Intn(200<<10)
			}
		}
		for step := 0; step < 600; step++ {
			op := rng.Intn(90)
			switch {
			case op < 50:
				dst := rng.Intn(n)
				p := pattern(uint64(step), size())
				seq := l.Record(dst, uint32(step), int32(dst), byte(step), p)
				m.seqs[dst]++
				if seq != m.seqs[dst] {
					t.Fatalf("seed %d step %d: Record seq %d, want %d", seed, step, seq, m.seqs[dst])
				}
				if len(p) == 0 {
					p = nil
				}
				m.ents[dst] = append(m.ents[dst], Entry{Seq: seq, Ctx: uint32(step), Tag: int32(dst), Kind: byte(step), Data: p})
			case op < 70:
				acked := make([]uint64, rng.Intn(n+2))
				wantEnts, wantBytes := 0, 0
				for dst := range acked {
					acked[dst] = uint64(rng.Int63n(int64(m.seqs[dst%n]) + 2))
					if dst >= n {
						continue
					}
					ents := m.ents[dst]
					i := 0
					for i < len(ents) && ents[i].Seq <= acked[dst] {
						wantBytes += len(ents[i].Data)
						i++
					}
					wantEnts += i
					m.ents[dst] = ents[i:]
				}
				if e, b := l.Trim(acked); e != wantEnts || b != wantBytes {
					t.Fatalf("seed %d step %d: Trim released (%d, %d), want (%d, %d)", seed, step, e, b, wantEnts, wantBytes)
				}
			case op < 80:
				dst := rng.Intn(n)
				seq := uint64(rng.Int63n(int64(m.seqs[dst]) + 2))
				got, want := l.After(dst, seq), m.after(dst, seq)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: After(%d, %d) has %d entries, want %d", seed, step, dst, seq, len(got), len(want))
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.Seq != w.Seq || g.Ctx != w.Ctx || g.Tag != w.Tag || g.Kind != w.Kind || !bytes.Equal(g.Data, w.Data) {
						t.Fatalf("seed %d step %d: After(%d, %d)[%d] = seq %d, want seq %d", seed, step, dst, seq, i, g.Seq, w.Seq)
					}
				}
			case op < 83:
				l.Reset()
				for dst := range m.ents {
					m.ents[dst], m.seqs[dst] = nil, 0
				}
			case op < 87:
				n = 1 + rng.Intn(5)
				l.Resize(n)
				m.resize(n)
			default:
				seqs := make([]uint64, rng.Intn(n+1))
				for i := range seqs {
					seqs[i] = m.seqs[i] + uint64(rng.Intn(3))
				}
				if err := l.RestoreSendSeqs(seqs); err != nil {
					t.Fatalf("seed %d step %d: RestoreSendSeqs: %v", seed, step, err)
				}
				copy(m.seqs, seqs)
				for i := len(seqs); i < n; i++ {
					m.seqs[i] = 0
				}
			}
			got := l.SendSeqs()
			for dst := range m.seqs {
				if got[dst] != m.seqs[dst] {
					t.Fatalf("seed %d step %d: SendSeqs = %v, want %v", seed, step, got, m.seqs)
				}
			}
			ge, gb := l.Stats()
			if we, wb := m.stats(); ge != we || gb != wb {
				t.Fatalf("seed %d step %d: Stats = (%d, %d), want (%d, %d)", seed, step, ge, gb, we, wb)
			}
			if out, live := arena.Outstanding(), liveChunks(l); out != live {
				t.Fatalf("seed %d step %d: arena has %d buffers out, log holds %d chunks", seed, step, out, live)
			}
		}
		l.Reset()
		if out := arena.Outstanding(); out != 0 {
			t.Fatalf("seed %d: %d arena buffers outstanding after teardown", seed, out)
		}
		// A Trim after teardown finds nothing to release.
		acked := make([]uint64, n)
		for i := range acked {
			acked[i] = ^uint64(0)
		}
		if e, b := l.Trim(acked); e != 0 || b != 0 || arena.Outstanding() != 0 {
			t.Fatalf("seed %d: Trim after teardown released (%d, %d)", seed, e, b)
		}
		if e, b := l.Stats(); e != 0 || b != 0 {
			t.Fatalf("seed %d: Stats after teardown = (%d, %d)", seed, e, b)
		}
	}
}

// TestSteadyStateAllocs pins the log's hot paths at zero allocations
// once the arena and the deques have warmed up: a small Record bumps
// into the tail chunk, a 64 KiB Record takes a recycled chunk, and a
// Trim hands chunks back.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random")
	}
	const runs = 100
	acked := make([]uint64, 2)
	cycle := func(l *Log, size, k int) {
		p := make([]byte, size)
		for i := 0; i < k; i++ {
			acked[1] = l.Record(1, 0, 0, 0, p)
		}
		l.Trim(acked)
	}
	for _, size := range []int{8, 64 << 10} {
		l := NewPooled(2, bufpool.New())
		cycle(l, size, 2*runs)
		cycle(l, size, 2*runs)
		p := make([]byte, size)
		if a := testing.AllocsPerRun(runs, func() { l.Record(1, 0, 0, 0, p) }); a != 0 {
			t.Errorf("Record of %d B: %v allocs, want 0", size, a)
		}
		if a := testing.AllocsPerRun(runs, func() { acked[1]++; l.Trim(acked) }); a != 0 {
			t.Errorf("Trim of %d B entries: %v allocs, want 0", size, a)
		}
	}
}
