package main

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"
)

// probe is a fixed piece of work that uses the standard library only, so no
// change to the program under test changes its cost: gob encoding and
// decoding of a small report with a fresh encoder and decoder per message
// (type descriptors and all, a large code path like the program's wire
// codec), binary and text encoding of the same report, map and sort work,
// and writes and reads over a loopback TCP connection. Only the gob messages
// allocate. The harness runs it between slots to read how fast the host is
// running the benchmark at that moment (see speedometer).
type probe struct {
	msg, out probeMsg
	buf      []byte
	gobBuf   bytes.Buffer
	keys     []string
	set      map[string]int
	sort     []string
	ln       net.Listener
	tx       net.Conn
	rx       net.Conn
	blk      []byte
}

// probeMsg is shaped like an agent's state report.
type probeMsg struct {
	Slot     int
	Backlogs []float64
	Prices   []float64
	Counts   []int
}

const (
	probeGobs  = 4 // gob messages per run
	probeMsgs  = 8 // binary and text messages per run
	probeKeys  = 256
	probeTrips = 8    // round trips over the connection per run
	probeBlock = 2048 // bytes per write; far below the socket buffer
)

func newProbe() (*probe, error) {
	p := &probe{set: make(map[string]int, probeKeys), sort: make([]string, 0, probeKeys), blk: make([]byte, probeBlock)}
	if err := p.dial(); err != nil {
		p.close()
		return nil, fmt.Errorf("probe connection: %w", err)
	}
	p.msg.Backlogs = make([]float64, 64)
	p.msg.Prices = make([]float64, 64)
	p.out.Backlogs = make([]float64, 64)
	p.out.Prices = make([]float64, 64)
	p.out.Counts = make([]int, 64)
	for i := range p.msg.Backlogs {
		p.msg.Backlogs[i] = float64(i) * 1.5
		p.msg.Prices[i] = 1 / float64(i+1)
	}
	p.msg.Counts = make([]int, 64)
	for i := range p.msg.Counts {
		p.msg.Counts[i] = i * i
	}
	for i := 0; i < probeKeys; i++ {
		p.keys = append(p.keys, "type-"+strconv.Itoa((i*7919)%probeKeys))
	}
	return p, nil
}

// dial opens the loopback connection. The kernel completes the handshake
// before Accept is called, so one goroutine can open both ends.
func (p *probe) dial() error {
	var err error
	if p.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	if p.tx, err = net.Dial("tcp", p.ln.Addr().String()); err != nil {
		return err
	}
	p.rx, err = p.ln.Accept()
	return err
}

func (p *probe) close() error {
	var errs []error
	for _, c := range []io.Closer{p.rx, p.tx, p.ln} {
		if c != nil && !reflect.ValueOf(c).IsNil() {
			errs = append(errs, c.Close())
		}
	}
	return errors.Join(errs...)
}

// run does the probe's work once and returns the process CPU time it took.
func (p *probe) run() (time.Duration, error) {
	start := cpuNow()
	for k := 0; k < probeGobs; k++ {
		p.gobBuf.Reset()
		if err := gob.NewEncoder(&p.gobBuf).Encode(&p.msg); err != nil {
			return 0, fmt.Errorf("probe gob encode: %w", err)
		}
		if err := gob.NewDecoder(&p.gobBuf).Decode(&p.out); err != nil {
			return 0, fmt.Errorf("probe gob decode: %w", err)
		}
	}
	for k := 0; k < probeMsgs; k++ {
		p.msg.Slot = k
		p.buf = p.msg.appendBinary(p.buf[:0])
		if err := p.out.decodeBinary(p.buf); err != nil {
			return 0, err
		}
		p.buf = p.msg.appendText(p.buf[:0])
	}
	clear(p.set)
	for i, k := range p.keys {
		p.set[k] += i
	}
	p.sort = p.sort[:0]
	for k := range p.set {
		p.sort = append(p.sort, k)
	}
	slices.Sort(p.sort)
	for k := 0; k < probeTrips; k++ {
		if _, err := p.tx.Write(p.blk); err != nil {
			return 0, fmt.Errorf("probe write: %w", err)
		}
		if _, err := io.ReadFull(p.rx, p.blk); err != nil {
			return 0, fmt.Errorf("probe read: %w", err)
		}
	}
	return cpuNow() - start, nil
}

// speedometer tracks how fast the host runs the probe. On a shared host the
// same code runs at different speeds from one second to the next (neighbours
// on the same core, caches, steal), in spells that last seconds. Scaling the
// CPU time of work done between two readings by probeRef over their mean
// gives the time the work would take on a host where the probe takes
// probeRef, so a run's figures do not depend on which spells it fell in.
type speedometer struct {
	p         *probe
	prev, cur time.Duration // the two latest readings
	at        time.Time     // when the latest reading was taken
	// runs counts probe runs, and allocsPerRun is the heap objects one run
	// allocates as /gc/heap/allocs:objects counts them, so that a window can
	// leave the probe's allocations out of the program's.
	runs         int
	allocsPerRun float64
}

// probeRef is the probe's CPU time on the host the benchmark's figures are
// scaled to: about its time on a 2.1 GHz Xeon vCPU when no neighbour is busy.
const probeRef = 225 * time.Microsecond

// probeEvery is how often, in wall time, the measured loop reads the probe.
const probeEvery = 50 * time.Millisecond

// newSpeedometer builds a probe and takes a first reading; close releases
// the probe's connection.
func newSpeedometer() (*speedometer, error) {
	p, err := newProbe()
	if err != nil {
		return nil, err
	}
	s := &speedometer{p: p}
	if _, err := s.read(); err != nil {
		s.close()
		return nil, err
	}
	// A collection flushes every P's allocation counts, so the count between
	// two of them is exact.
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	const n = 20
	runtime.GC()
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	for range n {
		if _, err := p.run(); err != nil {
			s.close()
			return nil, err
		}
	}
	runtime.GC()
	metrics.Read(allocs)
	s.allocsPerRun = float64(allocs[0].Value.Uint64()-a0) / n
	return s, nil
}

func (s *speedometer) close() error { return s.p.close() }

// read takes a reading: it runs the probe three times and keeps the shorter
// of the last two. The first run brings the probe's code and data back into
// the caches, so the reading does not depend on how much of the cache the
// program's last slot used; of the other two, the shorter one is the less
// likely to have paid for the program's garbage collection in an allocation
// assist.
func (s *speedometer) read() (time.Duration, error) {
	if _, err := s.p.run(); err != nil {
		return 0, err
	}
	d, err := s.p.run()
	if err != nil {
		return 0, err
	}
	d2, err := s.p.run()
	if err != nil {
		return 0, err
	}
	s.runs += 3
	d = min(d, d2)
	s.prev, s.cur = s.cur, d
	if s.prev == 0 {
		s.prev = d
	}
	s.at = time.Now()
	return d, nil
}

// due reports whether probeEvery has passed since the latest reading.
func (s *speedometer) due() bool { return time.Since(s.at) >= probeEvery }

// factor is the scale for work done between the two latest readings.
func (s *speedometer) factor() float64 {
	return 2 * float64(probeRef) / float64(s.prev+s.cur)
}

func scaleBy(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// appendBinary appends m as varints and raw float64 bits.
func (m *probeMsg) appendBinary(b []byte) []byte {
	b = binary.AppendVarint(b, int64(m.Slot))
	for _, v := range m.Backlogs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range m.Prices {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range m.Counts {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// decodeBinary reads what appendBinary wrote into m's existing slices.
func (m *probeMsg) decodeBinary(b []byte) error {
	v, n := binary.Varint(b)
	if n <= 0 {
		return errProbeShort
	}
	m.Slot, b = int(v), b[n:]
	for _, f := range [][]float64{m.Backlogs, m.Prices} {
		if len(b) < 8*len(f) {
			return errProbeShort
		}
		for i := range f {
			f[i], b = math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:]
		}
	}
	for i := range m.Counts {
		if v, n = binary.Varint(b); n <= 0 {
			return errProbeShort
		}
		m.Counts[i], b = int(v), b[n:]
	}
	return nil
}

// appendText appends m as text, shortest round-trip float formatting.
func (m *probeMsg) appendText(b []byte) []byte {
	b = strconv.AppendInt(b, int64(m.Slot), 10)
	for _, f := range [][]float64{m.Backlogs, m.Prices} {
		for _, v := range f {
			b = append(strconv.AppendFloat(b, v, 'g', -1, 64), ' ')
		}
	}
	return b
}

var errProbeShort = errors.New("probe: short message")
