package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteChromeTrace exports the retained events as Chrome trace-event JSON
// (the format Perfetto and chrome://tracing load): one track (tid) per
// process plus a "system" track, timestamps in microseconds of *virtual*
// time — so a run renders as the cluster timeline the cost model defines,
// and two runs with identical virtual behavior export byte-identical
// traces regardless of real scheduling.
//
// Wait-shaped events (lock waits, barrier waits, page fetches) export as
// complete ("X") slices spanning their virtual duration; everything else
// is an instant event.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := func(v interface{}, first bool) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	first := true
	put := func(v interface{}) error {
		err := enc(v, first)
		first = false
		return err
	}

	// Metadata: name the process and one thread per track.
	if err := put(chromeEvent{Ph: "M", Name: "process_name", Pid: 0, Tid: 0,
		Args: map[string]interface{}{"name": "lrcrace cluster"}}); err != nil {
		return err
	}
	sysTid := r.cfg.Procs
	for tid := 0; tid <= sysTid; tid++ {
		name := fmt.Sprintf("proc %d", tid)
		if tid == sysTid {
			name = "system"
		}
		if err := put(chromeEvent{Ph: "M", Name: "thread_name", Pid: 0, Tid: tid,
			Args: map[string]interface{}{"name": name}}); err != nil {
			return err
		}
	}

	for tid := 0; tid <= sysTid; tid++ {
		evs := r.rings[tid].events()
		// Canonical order: virtual time, then kind and args. Sequence
		// numbers are assigned in real-time order and would leak
		// scheduling nondeterminism into the export.
		sort.Slice(evs, func(i, j int) bool { return eventLess(evs[i], evs[j]) })
		for _, e := range evs {
			if err := put(chromeFor(e, tid)); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func eventLess(a, b Event) bool {
	if a.VT != b.VT {
		return a.VT < b.VT
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.C < b.C
}

// chromeEvent is one trace-event JSON object. encoding/json marshals map
// keys sorted, so the output is deterministic for a fixed event sequence.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

const usPerNs = 1e-3

// chromeFor maps one recorded event to its trace-event form.
func chromeFor(e Event, tid int) chromeEvent {
	ce := chromeEvent{Name: e.Kind.String(), Ph: "i", S: "t", Pid: 0, Tid: tid,
		Ts: float64(e.VT) * usPerNs}
	args := map[string]interface{}{}
	span := func(name string, durNS int64) {
		ce.Name = name
		ce.Ph = "X"
		ce.S = ""
		ce.Ts = float64(e.VT-durNS) * usPerNs
		ce.Dur = float64(durNS) * usPerNs
	}
	switch e.Kind {
	case KPageFault:
		args["page"] = e.A
		if e.B != 0 {
			args["write"] = true
		}
	case KPageFetch:
		span("page fetch", e.C)
		args["page"], args["from"] = e.A, e.B
	case KOwnershipXfer:
		args["page"], args["to"] = e.A, e.B
	case KLockRequest, KLockRelease:
		args["lock"] = e.A
	case KLockForward:
		args["lock"], args["requester"], args["holder"] = e.A, e.B, e.C
	case KLockGrant:
		args["lock"], args["requester"], args["records"] = e.A, e.B, e.C
	case KLockAcquired:
		span("lock wait", e.C)
		args["lock"], args["granter"] = e.A, e.B
	case KBarrierArrive:
		args["epoch"] = e.A
	case KBarrierRelease:
		args["epoch"], args["records"], args["skew_ns"] = e.A, e.B, e.C
	case KBarrierDepart:
		span("barrier wait", e.C)
		args["epoch"] = e.A
	case KIntervalClose:
		args["interval"], args["writes"], args["reads"] = e.A, e.B, e.C
	case KRaceCheck:
		args["checks"], args["bitmaps"], args["races"] = e.A, e.B, e.C
	case KRaceFound:
		args["addr"], args["epoch"] = e.A, e.B
		if e.C != 0 {
			args["write_write"] = true
		}
	case KDiffFlush:
		args["page"], args["words"] = e.A, e.B
	case KRetransmit:
		args["to"], args["resent"], args["round"] = e.A, e.B, e.C
	case KLinkDead:
		args["to"], args["unacked"], args["cap"] = e.A, e.B, e.C
	case KWireDrop, KWireDup, KWireReorder:
		args["to"], args["msg_type"] = e.A, e.B
	default:
		args["a"], args["b"], args["c"] = e.A, e.B, e.C
	}
	ce.Args = args
	return ce
}
