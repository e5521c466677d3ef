package tcpnet

import (
	"encoding/binary"
	"testing"
	"time"

	"lrcrace/internal/dsm"
	"lrcrace/internal/msg"
	"lrcrace/internal/race"
	"lrcrace/internal/simnet"
	"lrcrace/internal/wiretest"
)

func TestSendRecvAcrossSockets(t *testing.T) {
	nw, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	nw.Send(0, 2, &msg.PageReq{Page: 7, Write: true}, 111)
	nw.Send(1, 2, &msg.DiffAck{}, 222)
	nw.Send(2, 2, &msg.InvalAck{}, 333) // self loopback

	got := map[int]bool{}
	for i := 0; i < 3; i++ {
		d, ok := nw.Recv(2)
		if !ok {
			t.Fatal("short recv")
		}
		got[d.From] = true
		switch d.From {
		case 0:
			pr := d.Msg.(*msg.PageReq)
			if pr.Page != 7 || !pr.Write || d.VTime != 111 {
				t.Errorf("from 0: %+v vtime=%d", pr, d.VTime)
			}
		case 2:
			if d.VTime != 333 {
				t.Errorf("self delivery vtime = %d", d.VTime)
			}
		}
		if d.Frags != 1 || d.Bytes <= 0 {
			t.Errorf("metadata: %+v", d)
		}
	}
	if len(got) != 3 {
		t.Errorf("senders seen: %v", got)
	}
	if nw.Stats().TotalMessages() != 3 {
		t.Errorf("stats: %d", nw.Stats().TotalMessages())
	}
}

func TestPerPairFIFO(t *testing.T) {
	nw, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	const k = 200
	for i := 0; i < k; i++ {
		nw.Send(0, 1, &msg.PageReq{Page: 1}, int64(i))
	}
	for i := 0; i < k; i++ {
		d, ok := nw.Recv(1)
		if !ok || d.VTime != int64(i) {
			t.Fatalf("delivery %d: vtime=%d ok=%v", i, d.VTime, ok)
		}
	}
}

func TestCloseUnblocks(t *testing.T) {
	nw, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() {
		_, ok := nw.Recv(0)
		done <- ok
	}()
	nw.Close()
	if ok := <-done; ok {
		t.Error("Recv ok after close")
	}
	nw.Close() // idempotent
}

// TestDSMOverTCP is the marquee test: the full DSM — locks, barriers,
// coherence and the race detector — over real loopback TCP sockets.
func TestDSMOverTCP(t *testing.T) {
	nw, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dsm.New(dsm.Config{
		NumProcs:   4,
		SharedSize: 16 * 1024,
		Detect:     true,
		Transport:  nw,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctr, _ := sys.AllocWords("ctr", 1)
	racy, _ := sys.AllocWords("racy", 1)
	err = sys.Run(func(p *dsm.Proc) {
		for i := 0; i < 10; i++ {
			p.Lock(1)
			p.Write(ctr, p.Read(ctr)+1)
			p.Unlock(1)
		}
		p.Write(racy, uint64(p.ID()))
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotWord(ctr); got != 40 {
		t.Errorf("ctr over TCP = %d, want 40", got)
	}
	races := race.DedupByAddr(sys.Races())
	if len(races) != 1 || races[0].Addr != racy {
		t.Errorf("races over TCP = %v", races)
	}
	if sys.NetStats().TotalMessages() == 0 {
		t.Error("no traffic counted")
	}
}

// BenchmarkTransportRoundTrip compares one send+recv over loopback TCP
// against the in-memory simulated network.
func BenchmarkTransportRoundTrip(b *testing.B) {
	m := &msg.PageReq{Page: 1, Write: true}
	b.Run("tcp", func(b *testing.B) {
		nw, err := New(2)
		if err != nil {
			b.Fatal(err)
		}
		defer nw.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Send(0, 1, m, int64(i))
			if _, ok := nw.Recv(1); !ok {
				b.Fatal("recv failed")
			}
		}
	})
	b.Run("simnet", func(b *testing.B) {
		nw := simnet.New(2)
		defer nw.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nw.Send(0, 1, m, int64(i))
			if _, ok := nw.Recv(1); !ok {
				b.Fatal("recv failed")
			}
		}
	})
}

// TestCorruptFrameCounted injects a garbage frame directly onto a mesh
// connection: the reader must count it in Stats.Errors instead of dying
// silently.
func TestCorruptFrameCounted(t *testing.T) {
	nw, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	// A healthy frame first, to prove the stream works.
	nw.Send(0, 1, &msg.DiffAck{}, 1)
	if _, ok := nw.Recv(1); !ok {
		t.Fatal("healthy frame lost")
	}

	// Hand-build a frame whose payload is not a decodable message.
	// conns[0][1] is endpoint 0's end of the 0↔1 connection; endpoint 1's
	// readLoop parses whatever arrives on the other end.
	payload := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint16(hdr[0:], 0)                     // from
	binary.LittleEndian.PutUint16(hdr[2:], 1)                     // frags
	binary.LittleEndian.PutUint64(hdr[4:], 42)                    // vtime
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload))) // plen
	c := nw.conns[0][1]
	if _, err := c.Write(append(hdr, payload...)); err != nil {
		t.Fatal(err)
	}

	// The reader drops the connection after the decode failure; wait for
	// the error counter rather than sleeping a fixed interval.
	deadline := time.Now().Add(2 * time.Second)
	for nw.Stats().Errors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt frame never counted in Stats.Errors")
		}
		time.Sleep(time.Millisecond)
	}
	if got := nw.Stats().Errors; got != 1 {
		t.Errorf("Errors = %d, want 1", got)
	}
}

func TestSendSharesNothing(t *testing.T) {
	nw, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for _, to := range []int{0, 1} { // loopback, then across a socket
		wiretest.SendSharesNothing(t,
			func(m msg.Message) { nw.Send(0, to, m, 0) },
			func() msg.Message { d, _ := nw.Recv(to); return d.Msg })
	}
}
