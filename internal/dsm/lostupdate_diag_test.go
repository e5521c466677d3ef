package dsm

import (
	"fmt"
	"sync"
	"testing"

	"lrcrace/internal/mem"
)

// TestLostUpdateDiagnosis reproduces the rare lost-update failure with a
// value trace: every critical section logs the value it read and wrote, in
// global order. A lost update shows as two sections reading the same value.
func TestLostUpdateDiagnosis(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		s := newSys(t, 4, SingleWriter, false)
		slots, _ := s.AllocWords("slots", 4)
		sum, _ := s.AllocWords("sum", 1)
		var mu sync.Mutex
		var trace []string
		err := s.Run(func(p *Proc) {
			for round := 0; round < 8; round++ {
				p.Lock(0)
				p.Write(slots+mem.Addr(p.ID()*8), uint64((round+1)*100+p.ID()))
				v := p.Read(sum)
				p.Write(sum, v+1)
				mu.Lock()
				trace = append(trace, fmt.Sprintf("p%d r%d: %d -> %d", p.ID(), round, v, v+1))
				mu.Unlock()
				p.Unlock(0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		pg := s.layout.Page(sum)
		var got uint64
		for _, q := range s.procs {
			if q.owned[pg] {
				got = q.seg.Word(sum)
			}
		}
		if got != 32 {
			for _, l := range trace {
				t.Log(l)
			}
			t.Fatalf("iter %d: sum = %d, want 32", iter, got)
		}
	}
}
