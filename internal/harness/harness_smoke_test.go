package harness

import (
	"os"
	"testing"
)

func TestSmokeTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := NewSuite(1, 8)
	// Every pair the tables below read, run side by side first: their wall
	// time is mostly TSP's message-delay sleeps, which overlap.
	if err := s.Prefill(0, 2, 4, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.Table1(os.Stdout); err != nil {
		t.Fatal(err)
	}
	Table2(os.Stdout)
	if err := s.Table3(os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := s.Figure3(os.Stdout); err != nil {
		t.Fatal(err)
	}
	if err := s.Figure4(os.Stdout, []int{2, 4, 8}); err != nil { // the counts prefilled above
		t.Fatal(err)
	}
	if err := s.RacesReport(os.Stdout); err != nil {
		t.Fatal(err)
	}
}
