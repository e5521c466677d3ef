package dsm

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"lrcrace/internal/mem"
	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
)

// A sent message is frozen (Transport): the network encodes it only for
// its size and hands the message itself to the receiver, so neither the
// sender nor any receiver may write to it, or to anything it references,
// once it is sent. The one exception is a PageReply's Data, which the
// sender hands over as a frame of its own and the receiver keeps as its
// page frame.

// sendLog records every message a run sends or forwards, with its bytes at
// that moment, across every attempt of the run.
type sendLog struct {
	sent []sentMsg
	wire map[msg.Message][]byte // each message's bytes when first sent
}

type sentMsg struct {
	m         msg.Message
	wire      []byte
	forwarded bool
}

// watch makes s's transports, one per attempt, record into l, and checks
// each delivery before its handler runs: the message must encode as it did
// when it was sent. Like a protocol bug, a message that does not stops the
// run with a panic, before a handler can trip over it.
func (l *sendLog) watch(s *System) {
	l.wire = map[msg.Message][]byte{}
	s.wrapNet = func(nw Transport) Transport { return &sendTap{Transport: nw, log: l, sys: s} }
	s.seeDelivery = func(to int, d simnet.Delivery) {
		if w, ok := l.wire[d.Msg]; ok && !bytes.Equal(msg.Marshal(d.Msg), w) {
			panic(fmt.Sprintf("%v from p%d changed before p%d handled it", d.Msg.Type(), d.From, to))
		}
	}
}

func (l *sendLog) record(m msg.Message, forwarded bool) {
	w := msg.Marshal(m)
	l.sent = append(l.sent, sentMsg{m: m, wire: w, forwarded: forwarded})
	if _, ok := l.wire[m]; !ok {
		l.wire[m] = w
	}
}

// check fails t if a recorded message other than a PageReply, whose Data
// its receiver owns, no longer encodes to the bytes it had when it was
// sent, and returns the message types recorded.
func (l *sendLog) check(t *testing.T) map[msg.Type]bool {
	t.Helper()
	seen := map[msg.Type]bool{}
	for i, r := range l.sent {
		seen[r.m.Type()] = true
		if r.m.Type() != msg.TPageReply && !bytes.Equal(msg.Marshal(r.m), r.wire) {
			t.Fatalf("message %d (%v, forwarded %v) changed after it was sent", i, r.m.Type(), r.forwarded)
		}
	}
	return seen
}

// sendTap is one attempt's transport, recording into its log.
type sendTap struct {
	Transport
	log *sendLog
	sys *System
}

func (tap *sendTap) Send(from, to int, m msg.Message, vtime int64) int {
	tap.log.record(m, false)
	if rep, ok := m.(*msg.PageReply); ok && unsafe.SliceData(rep.Data) == unsafe.SliceData(tap.sys.procs[from].seg.PageView(rep.Page)) {
		panic(fmt.Sprintf("p%d sent page %d without handing over a frame of its own", from, rep.Page))
	}
	return tap.Transport.Send(from, to, m, vtime)
}

func (tap *sendTap) Forward(from, to int, d simnet.Delivery, vtime int64) int {
	tap.log.record(d.Msg, true)
	return tap.Transport.Forward(from, to, d, vtime)
}

// TestSentMessagesUnchanged: every message sent or forwarded during a run
// must encode, when each receiver handles it and after the run, to the
// bytes it had when it was sent (a PageReply only until its receiver takes
// its Data) — under every barrier topology, the single-writer, multi-writer
// and eager protocols, a clean and a lossy wire, and a run that crashes and
// rolls back. The seam must have seen every type the run put on the wire, and
// the runs together every protocol message type.
func TestSentMessagesUnchanged(t *testing.T) {
	wires := []struct {
		name   string
		faults *simnet.FaultPlan
	}{{"clean", nil}, {"lossy", chaosPlan(7)}}
	protos := []struct {
		name  string
		proto ProtocolKind
	}{{"single-writer", SingleWriter}, {"multi-writer", MultiWriter}, {"eager", EagerRC}}
	seen := map[msg.Type]bool{}
	for _, pl := range []pipeline{flatPipe, shardedPipe, tree2Pipe} {
		for _, w := range wires {
			for _, pr := range protos {
				detect := pr.proto != EagerRC // the eager protocol keeps no detection metadata
				if pl.sharded && !detect {
					continue
				}
				t.Run(pl.name+"/"+w.name+"/"+pr.name, func(t *testing.T) {
					cfg := pl.on(smallConfig(5, pr.proto, detect))
					cfg.Faults = w.faults
					s, log := runWatched(t, cfg, true)
					requireSeen(t, s, log.check(t), seen)
				})
			}
		}
	}
	t.Run("crash-recovery", func(t *testing.T) {
		sc := mwScenario()
		s := recoverySys(t, 4, sc.proto, &CrashPlan{Victim: 2, Epoch: 1, Point: CrashMidInterval, AfterN: 2}, nil)
		var log sendLog
		log.watch(s)
		if err := s.RunEpochs(sc.epochs, sc.setup(t, s)); err != nil {
			t.Fatal(err)
		}
		if rs := s.RecoveryStats(); rs.Recoveries != 1 {
			t.Fatalf("recoveries = %d, want 1", rs.Recoveries)
		}
		requireSeen(t, s, log.check(t), seen)
	})
	if t.Failed() {
		return // a failed run may have stopped before sending every type
	}
	for typ := msg.TAcquireReq; typ <= msg.TTreeReduce; typ++ {
		if typ != msg.TRelData && typ != msg.TRelAck && !seen[typ] {
			t.Errorf("no run sent a %v", typ)
		}
	}
}

// runWatched runs a racy program on cfg's five processes with every send
// recorded: three epochs of overlapping writes and reads, each ended by a
// barrier and, when locked, preceded by a locked counter increment.
func runWatched(t *testing.T, cfg Config, locked bool) (*System, *sendLog) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &sendLog{}
	log.watch(s)
	base, _ := s.AllocWords("shared", 512)
	counter, _ := s.AllocWords("counter", 1)
	err = s.Run(func(p *Proc) {
		for e := 0; e < 3; e++ {
			for i := 0; i < 32; i++ {
				p.Write(base+mem.Addr(((i*5+p.ID())*8)%(512*8)), uint64(i))
				p.Read(base + mem.Addr(((i*5+(p.ID()+e)%5)*8)%(512*8)))
			}
			if locked {
				p.Lock(1)
				p.Write(counter, p.Read(counter)+1)
				p.Unlock(1)
			}
			p.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, log
}

// requireSeen fails t unless the tap saw every message type s's wire
// carried, and adds them to all.
func requireSeen(t *testing.T, s *System, seen, all map[msg.Type]bool) {
	t.Helper()
	st := s.NetStats()
	for typ := msg.TAcquireReq; typ <= msg.TTreeReduce; typ++ {
		if typ == msg.TRelData || typ == msg.TRelAck {
			continue
		}
		if st.Messages[typ] > 0 && !seen[typ] {
			t.Errorf("the wire carried %d %v messages the seam never saw", st.Messages[typ], typ)
		}
		if seen[typ] {
			all[typ] = true
		}
	}
}
