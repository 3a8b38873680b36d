package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome/Perfetto trace-event format
// (the JSON object array ui.perfetto.dev and chrome://tracing load).
// Timestamps and durations are microseconds (fractional allowed).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format's top level.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

const chromePid = 1

func usec(ns int64) float64 { return float64(ns) / 1e3 }

func durp(ns int64) *float64 {
	d := usec(ns)
	if d < 0 {
		d = 0
	}
	return &d
}

// ExportChrome writes the trace as Chrome trace-event JSON:
//
//   - one track (thread) per Proc, named via thread_name metadata
//     (proc 0 is the shared Global ring);
//   - critical sections as complete ("X") spans on the owner's track,
//     matched install→release by (lock, generation);
//   - helper runs as "X" spans on the helper's track
//     (help_begin→help_end, or →replay for runs that lost the claim),
//     with a flow arrow ("s" on the owner's track, "f" on the
//     helper's) per help hand-off so Perfetto draws the
//     owner→helper₁→helper₂ chain;
//   - KV operations and transactions as duration spans (their events
//     carry the duration, so the span is placed at completion−dur);
//   - everything else (stalls, restarts, spills, epoch activity…) as
//     thread-scoped instants.
//
// The result loads directly in ui.perfetto.dev or chrome://tracing.
func ExportChrome(w io.Writer, t Trace) error {
	procs := map[uint64]bool{}
	for _, ev := range t.Events {
		procs[ev.Proc] = true
	}

	var out []chromeEvent
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid,
		Args: map[string]any{"name": "flock"},
	})
	for p := range procs {
		name := fmt.Sprintf("proc %d", p)
		if p == 0 {
			name = "global"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: p,
			Args: map[string]any{"name": name},
		})
	}

	type ckey struct{ lock, gen uint64 }
	type hkey struct{ proc, lock, gen uint64 }
	installs := map[ckey]Event{}
	helpOpen := map[hkey]Event{}
	flowID := uint64(0)

	instant := func(ev Event, args map[string]any) chromeEvent {
		return chromeEvent{
			Name: ev.Kind.String(), Ph: "i", S: "t",
			Pid: chromePid, Tid: ev.Proc, TS: usec(ev.TS),
			Cat: "lock", Args: args,
		}
	}
	lockArg := func(ev Event) map[string]any {
		return map[string]any{"lock": fmt.Sprintf("%#x", ev.Lock)}
	}

	for _, ev := range t.Events {
		switch ev.Kind {
		case AcqInstalled:
			installs[ckey{ev.Lock, ev.B}] = ev
		case Release:
			k := ckey{ev.Lock, ev.B}
			if inst, ok := installs[k]; ok {
				delete(installs, k)
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("cs %#x", ev.Lock), Ph: "X",
					Pid: chromePid, Tid: inst.A, TS: usec(inst.TS),
					Dur: durp(ev.TS - inst.TS), Cat: "cs",
					Args: map[string]any{
						"lock": fmt.Sprintf("%#x", ev.Lock), "gen": ev.B,
						"owner": inst.A, "released_by": ev.Proc,
					},
				})
			} else {
				out = append(out, instant(ev, lockArg(ev)))
			}
		case HelpBegin:
			helpOpen[hkey{ev.Proc, ev.Lock, ev.B}] = ev
			flowID++
			// Flow arrow: starts inside the owner's critical-section
			// span (helping happens strictly between install and
			// release), ends at the helper's span start.
			out = append(out,
				chromeEvent{
					Name: "help", Ph: "s", ID: flowID, Cat: "help",
					Pid: chromePid, Tid: ev.A, TS: usec(ev.TS),
				},
				chromeEvent{
					Name: "help", Ph: "f", BP: "e", ID: flowID, Cat: "help",
					Pid: chromePid, Tid: ev.Proc, TS: usec(ev.TS),
				})
		case HelpEnd, Replay:
			k := hkey{ev.Proc, ev.Lock, ev.B}
			if begin, ok := helpOpen[k]; ok {
				delete(helpOpen, k)
				out = append(out, chromeEvent{
					Name: fmt.Sprintf("help %#x", ev.Lock), Ph: "X",
					Pid: chromePid, Tid: ev.Proc, TS: usec(begin.TS),
					Dur: durp(ev.TS - begin.TS), Cat: "help",
					Args: map[string]any{
						"lock": fmt.Sprintf("%#x", ev.Lock), "gen": ev.B,
						"owner": ev.A, "finisher": ev.Kind == HelpEnd,
					},
				})
			} else {
				// An owner-side replay (or a help whose begin fell
				// outside the window).
				out = append(out, instant(ev, lockArg(ev)))
			}
		case KVOp:
			args := map[string]any{"op": KVOpName(ev.A)}
			if ev.Lock == ^uint64(0) {
				args["shard"] = "multi"
			} else {
				args["shard"] = ev.Lock
			}
			out = append(out, chromeEvent{
				Name: "kv " + KVOpName(ev.A), Ph: "X",
				Pid: chromePid, Tid: ev.Proc, TS: usec(ev.TS - int64(ev.B)),
				Dur: durp(int64(ev.B)), Cat: "kv", Args: args,
			})
		case TxnSpan:
			out = append(out, chromeEvent{
				Name: "txn", Ph: "X",
				Pid: chromePid, Tid: ev.Proc, TS: usec(ev.TS - int64(ev.B)),
				Dur: durp(int64(ev.B)), Cat: "txn",
				Args: map[string]any{
					"shards":   ev.A & 0xffff,
					"attempts": ev.A >> 16,
				},
			})
		default:
			var args map[string]any
			switch ev.Kind {
			case AcqStart, AcqBlocking, SpinEpisode, OptRestart:
				args = lockArg(ev)
				if ev.Kind == SpinEpisode {
					args["iters"] = ev.B
				}
			case EpochAdvance:
				args = map[string]any{"epoch": ev.A}
			case EpochReclaim:
				args = map[string]any{"epoch": ev.A, "lag": ev.B}
			}
			out = append(out, instant(ev, args))
		}
	}
	// Unmatched opens (the window closed mid-flight): surface as
	// instants rather than inventing durations.
	for _, inst := range installs {
		out = append(out, instant(inst, map[string]any{
			"lock": fmt.Sprintf("%#x", inst.Lock), "unreleased": true,
		}))
	}
	for _, begin := range helpOpen {
		out = append(out, instant(begin, map[string]any{
			"lock": fmt.Sprintf("%#x", begin.Lock), "unfinished": true,
		}))
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{
		TraceEvents:     out,
		DisplayTimeUnit: "ns",
		Metadata:        map[string]any{"dropped_records": t.Dropped},
	})
}
