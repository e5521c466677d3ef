// Package tcpnet is a real-sockets transport for the DSM: a full mesh of
// loopback TCP connections carrying the same serialized messages as the
// simulated network. It exists to make the claim behind the paper's system
// literal — CVM is "written entirely as a user-level library" over UDP; this
// transport runs the whole DSM, detector included, over an actual kernel
// network stack. TCP (rather than UDP) supplies the reliability and
// per-pair ordering the protocol assumes, which CVM layered over UDP with
// its own end-to-end retransmission.
//
// Virtual-time accounting is identical to simnet: the receiver computes
// modeled wire time from the sender's clock and the byte count, so the
// performance results do not depend on which transport ran.
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"lrcrace/internal/msg"
	"lrcrace/internal/simnet"
)

// frameHeader is [from u16][frags u16][vtime i64][payloadLen u32].
const frameHeader = 2 + 2 + 8 + 4

// maxFrame bounds a payload to catch stream desync early.
const maxFrame = 64 << 20

// Network is a full mesh of loopback TCP connections between n endpoints.
type Network struct {
	n   int
	mtu int

	listeners []net.Listener
	conns     [][]net.Conn   // conns[from][to], nil on the diagonal
	sendMu    [][]sync.Mutex // one writer lock per connection

	in *simnet.Inbox

	mu     sync.Mutex
	stats  simnet.Stats
	closed bool
	wg     sync.WaitGroup
}

// New builds the mesh on 127.0.0.1 ephemeral ports and starts the reader
// goroutines.
func New(n int) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("tcpnet: n = %d", n)
	}
	nw := &Network{n: n, mtu: simnet.DefaultMTU, in: simnet.NewInbox(n, true)}
	nw.conns = make([][]net.Conn, n)
	nw.sendMu = make([][]sync.Mutex, n)
	for i := range nw.conns {
		nw.conns[i] = make([]net.Conn, n)
		nw.sendMu[i] = make([]sync.Mutex, n)
	}

	// One listener per endpoint.
	nw.listeners = make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			nw.Close()
			return nil, fmt.Errorf("tcpnet: listen: %w", err)
		}
		nw.listeners[i] = l
		addrs[i] = l.Addr().String()
	}

	// Dial the full mesh: from < to dials; the accept side learns the
	// dialer's identity from a hello byte pair. Setup errors from the N
	// accept goroutines and the dialing loop are collected under a mutex
	// (they run concurrently), and the first failure stops the dialing —
	// there is no point building the rest of a half-broken mesh.
	var (
		errMu    sync.Mutex
		setupErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if setupErr == nil {
			setupErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return setupErr != nil
	}
	var wg sync.WaitGroup
	for to := 0; to < n; to++ {
		wg.Add(1)
		go func(to int) {
			defer wg.Done()
			for k := 0; k < to; k++ { // expect dials from every from < to
				c, err := nw.listeners[to].Accept()
				if err != nil {
					fail(err)
					return
				}
				var hello [2]byte
				if _, err := io.ReadFull(c, hello[:]); err != nil {
					fail(err)
					return
				}
				from := int(binary.LittleEndian.Uint16(hello[:]))
				nw.conns[to][from] = c // to also sends to from on this conn
			}
		}(to)
	}
dial:
	for from := 0; from < n; from++ {
		for to := from + 1; to < n; to++ {
			if failed() {
				break dial
			}
			c, err := net.Dial("tcp", addrs[to])
			if err != nil {
				fail(err)
				break dial
			}
			var hello [2]byte
			binary.LittleEndian.PutUint16(hello[:], uint16(from))
			if _, err := c.Write(hello[:]); err != nil {
				fail(err)
				break dial
			}
			nw.conns[from][to] = c
		}
	}
	if failed() {
		// Unblock accept goroutines still waiting for dials that will
		// never come.
		for _, l := range nw.listeners {
			l.Close()
		}
	}
	wg.Wait()
	if err := setupErr; err != nil {
		nw.Close()
		return nil, fmt.Errorf("tcpnet: mesh setup: %w", err)
	}

	// Reader goroutines: one per connection endpoint direction. Connection
	// conns[a][b] carries frames in both directions (a→b written by a,
	// b→a written by b), so each side reads its own end.
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b || nw.conns[a][b] == nil {
				continue
			}
			nw.wg.Add(1)
			go nw.readLoop(a, nw.conns[a][b])
		}
	}
	return nw, nil
}

// readLoop parses frames arriving at endpoint owner on c. A corrupted or
// oversized frame still drops the connection (the stream offset is lost —
// resynchronizing a length-prefixed stream is not possible), but it is
// counted in Stats.Errors and logged, so a desync diagnoses as an error
// rather than a mystery hang.
func (nw *Network) readLoop(owner int, c net.Conn) {
	defer nw.wg.Done()
	hdr := make([]byte, frameHeader)
	for {
		if _, err := io.ReadFull(c, hdr); err != nil {
			return // peer closed (normal teardown path)
		}
		from := int(binary.LittleEndian.Uint16(hdr[0:]))
		frags := int(binary.LittleEndian.Uint16(hdr[2:]))
		vtime := int64(binary.LittleEndian.Uint64(hdr[4:]))
		plen := binary.LittleEndian.Uint32(hdr[12:])
		if plen > maxFrame {
			nw.streamError() // oversized frame
			return
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(c, payload); err != nil {
			nw.streamError() // truncated frame
			return
		}
		m, err := msg.Unmarshal(payload)
		if err != nil {
			nw.streamError() // corrupt payload
			return
		}
		nw.in.Push(owner, simnet.Delivery{
			From:  from,
			VTime: vtime,
			Bytes: len(payload) + frags*simnet.UDPOverhead,
			Frags: frags,
			Msg:   m,
		})
	}
}

// streamError counts a framing/decode failure on a live connection; the
// caller then drops the connection. Failures observed during shutdown are
// the teardown itself, not stream corruption, and are not counted.
func (nw *Network) streamError() {
	nw.mu.Lock()
	if !nw.closed {
		nw.stats.Errors++
	}
	nw.mu.Unlock()
}

// Send implements dsm.Transport. The frame — header and marshaled message —
// is built in one pooled buffer and written with one Write; the buffer goes
// back to the pool before Send returns, so Send keeps no reference to m.
func (nw *Network) Send(from, to int, m msg.Message, vtime int64) int {
	buf := simnet.GetBuf()
	defer simnet.PutBuf(buf)
	frame := msg.AppendMarshal(append(*buf, make([]byte, frameHeader)...), m)
	*buf = frame
	wire := frame[frameHeader:]
	frags := (len(wire) + nw.mtu - 1) / nw.mtu
	if frags < 1 {
		frags = 1
	}
	size := len(wire) + frags*simnet.UDPOverhead

	nw.mu.Lock()
	nw.stats.Messages[m.Type()] += int64(frags)
	nw.stats.Bytes[m.Type()] += int64(size)
	closed := nw.closed
	nw.mu.Unlock()
	if closed {
		return size
	}

	if from == to {
		// Loopback without touching the kernel (a process messaging
		// itself, e.g. the barrier master's own arrival).
		parsed, err := msg.Unmarshal(wire)
		if err != nil {
			panic(fmt.Sprintf("tcpnet: message %v does not survive the wire: %v", m.Type(), err))
		}
		nw.in.Push(to, simnet.Delivery{From: from, VTime: vtime, Bytes: size, Frags: frags, Msg: parsed})
		return size
	}

	c := nw.conns[from][to]
	if c == nil {
		c = nw.conns[to][from]
	}
	if c == nil {
		return size // torn down
	}
	binary.LittleEndian.PutUint16(frame[0:], uint16(from))
	binary.LittleEndian.PutUint16(frame[2:], uint16(frags))
	binary.LittleEndian.PutUint64(frame[4:], uint64(vtime))
	binary.LittleEndian.PutUint32(frame[12:], uint32(len(wire)))

	mu := &nw.sendMu[from][to]
	mu.Lock()
	// A failed write means the receiver is gone (the shutdown path); the
	// frame still counts as sent.
	_, _ = c.Write(frame)
	mu.Unlock()
	return size
}

// Recv blocks for proc's next delivery; ok is false after Close.
func (nw *Network) Recv(proc int) (simnet.Delivery, bool) {
	return nw.in.Recv(proc)
}

// Next implements dsm.Transport: the socket readers are real-time sources,
// so Next waits for them (see simnet.Inbox.Next).
func (nw *Network) Next(wait time.Duration) (int, simnet.Delivery, error) {
	return nw.in.Next(wait)
}

// Close implements dsm.Transport: tear down sockets and unblock receivers.
func (nw *Network) Close() {
	nw.mu.Lock()
	if nw.closed {
		nw.mu.Unlock()
		return
	}
	nw.closed = true
	nw.mu.Unlock()

	for _, l := range nw.listeners {
		if l != nil {
			l.Close()
		}
	}
	for a := range nw.conns {
		for b := range nw.conns[a] {
			if nw.conns[a][b] != nil {
				nw.conns[a][b].Close()
			}
		}
	}
	nw.wg.Wait()
	nw.in.Close()
}

// Stats implements dsm.Transport.
func (nw *Network) Stats() simnet.Stats {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.stats
}
