package main

import (
	"fmt"
	"reflect"
	"runtime/metrics"
	"time"

	"grefar/internal/agent"
	"grefar/internal/model"
	"grefar/internal/transport"
)

// codecSample is one agent RPC's request and response bodies, taken from
// the workload's own last slot.
type codecSample struct {
	kind      string
	req, resp any
}

// codecStat is the body codec cost of one RPC: encode and decode of the
// request and of the response.
type codecStat struct {
	us, allocs, bytes float64
}

// codecMinTime is how long each message kind is replayed.
const codecMinTime = 50 * time.Millisecond

// replayCodec times transport.Marshal and transport.Unmarshal on the
// samples, per message kind.
func replayCodec(samples []codecSample) (map[string]codecStat, error) {
	byKind := map[string][]codecSample{}
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s)
	}
	out := map[string]codecStat{}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	for kind, ss := range byKind {
		var st codecStat
		for _, s := range ss {
			n, err := roundTrip(s)
			if err != nil {
				return nil, fmt.Errorf("codec %s: %w", kind, err)
			}
			st.bytes += float64(n)
		}
		st.bytes /= float64(len(ss))
		rpcs := 0
		metrics.Read(allocs)
		a0 := allocs[0].Value.Uint64()
		start := time.Now()
		for time.Since(start) < codecMinTime {
			for _, s := range ss {
				if _, err := roundTrip(s); err != nil {
					return nil, fmt.Errorf("codec %s: %w", kind, err)
				}
			}
			rpcs += len(ss)
		}
		el := time.Since(start)
		metrics.Read(allocs)
		st.us = float64(el.Microseconds()) / float64(rpcs)
		st.allocs = float64(allocs[0].Value.Uint64()-a0) / float64(rpcs)
		out[kind] = st
	}
	return out, nil
}

// roundTrip encodes and decodes one RPC's bodies into fresh values, as the
// two ends of the wire do, and returns the encoded size.
func roundTrip(s codecSample) (int, error) {
	n := 0
	for _, v := range []any{s.req, s.resp} {
		b, err := transport.Marshal(v)
		if err != nil {
			return 0, err
		}
		n += len(b)
		dst := reflect.New(reflect.TypeOf(v)).Interface()
		if err := transport.Unmarshal(b, dst); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// agentSamples builds one state and one allocate sample per agent: the state
// request for the next slot with the agent's real report, and the allocation
// the agent last received with its real acknowledgement.
func agentSamples(agents []*agent.Agent, t int, act *model.Action, acks []transport.AllocateAck) ([]codecSample, error) {
	var out []codecSample
	for i, a := range agents {
		req := transport.StateRequest{Slot: t + 1}
		body, err := transport.Marshal(req)
		if err != nil {
			return nil, err
		}
		rep, err := a.Handle(transport.KindState, body)
		if err != nil {
			return nil, fmt.Errorf("agent %d state: %w", i, err)
		}
		out = append(out,
			codecSample{kind: transport.KindState, req: req, resp: rep},
			codecSample{kind: transport.KindAllocate, req: transport.Allocate{
				Slot:    t,
				Route:   act.Route[i],
				Process: act.Process[i],
				Busy:    act.Busy[i],
			}, resp: acks[i]})
	}
	return out, nil
}

// setTransport sets the transport layer's metrics from the RPC counts per
// slot and the replayed bodies.
func setTransport(ms *metricSet, calls map[string]float64, samples []codecSample, rttMS float64) error {
	stats, err := replayCodec(samples)
	if err != nil {
		return err
	}
	ms.set("transport.calls_per_slot.state", calls[transport.KindState])
	ms.set("transport.calls_per_slot.allocate", calls[transport.KindAllocate])
	ms.set("transport.calls_per_slot.ping", calls[transport.KindPing])
	ms.set("transport.rtt_ms_mean", rttMS)
	ms.set("transport.codec_us.state", stats[transport.KindState].us)
	ms.set("transport.codec_us.allocate", stats[transport.KindAllocate].us)
	ms.set("transport.codec_allocs.state", stats[transport.KindState].allocs)
	ms.set("transport.codec_allocs.allocate", stats[transport.KindAllocate].allocs)
	ms.set("transport.bytes_per_slot",
		calls[transport.KindState]*stats[transport.KindState].bytes+
			calls[transport.KindAllocate]*stats[transport.KindAllocate].bytes)
	return nil
}
