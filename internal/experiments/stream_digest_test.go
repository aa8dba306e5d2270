package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/economy"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload/arrival"
)

// eventStream is what a run's taps saw: the trace ring's events, hashed,
// and the latency histograms' summary, hashed.
type eventStream struct {
	Events     int
	Stream     string // SHA-256 over every recorded event
	Histograms string // SHA-256 of the metrics summary's JSON
	Candidates uint64 // DBC phase-1 candidate observations
}

// tapRun runs setting under algo with a trace ring and the metrics tap
// installed. Each event enters the stream digest as the little-endian
// uint64s of its time's bits, its kind and its node, then its workflow and
// task names, each followed by a 0 byte. The ring is sized so nothing
// drops.
func tapRun(t *testing.T, setting Setting, algo string) eventStream {
	t.Helper()
	ring := trace.NewBuffer(1 << 16)
	gm := obs.NewGridMetrics()
	setting.Tap = grid.Taps{grid.TraceTap{Buf: ring}, gm}
	if _, err := SingleRunWith(setting, algo); err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	if ring.Dropped != 0 {
		t.Fatalf("%s: the ring dropped %d events", algo, ring.Dropped)
	}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, e := range ring.Events() {
		put(math.Float64bits(e.Time))
		put(uint64(e.Kind))
		put(uint64(int64(e.Node)))
		h.Write(append([]byte(e.Workflow), 0))
		h.Write(append([]byte(e.Task), 0))
	}
	summary, err := json.Marshal(gm.Summary())
	if err != nil {
		t.Fatal(err)
	}
	hs := sha256.Sum256(summary)
	return eventStream{
		Events:     ring.Len(),
		Stream:     hex.EncodeToString(h.Sum(nil)),
		Histograms: hex.EncodeToString(hs[:]),
		Candidates: gm.Phase1Candidates.Count(),
	}
}

// ScaleByNameMust is a test helper around ScaleByName.
func ScaleByNameMust(t *testing.T, name string) Scale {
	t.Helper()
	sc, err := ScaleByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// churnSetting is the churn scenario of the stream digests: a fifth of
// the nodes dynamic, the stable half the only homes.
func churnSetting(t *testing.T, seed int64) Setting {
	tiny := ScaleByNameMust(t, "tiny")
	s := NewSetting(tiny, seed)
	s.Churn.DynamicFactor = 0.2
	s.Churn.StableCount = tiny.Nodes / 2
	s.Homes = tiny.Nodes / 2
	return s
}

// TestEventStreamDigest pins every consumer of the grid's event stream:
// the trace ring's full event sequence and the latency histograms, for the
// list and matrix planners, both full-ahead planners, DBC with prices,
// SLAs and Poisson arrivals, and churn with and without rescheduling. The
// digests were recorded before the grid reported through one tap.
func TestEventStreamDigest(t *testing.T) {
	tiny := ScaleByNameMust(t, "tiny")
	dbc := NewSetting(tiny, 7)
	var err error
	if dbc.Price, err = economy.ParsePrice("1:0.3"); err != nil {
		t.Fatal(err)
	}
	if dbc.SLA, err = economy.ParseSLA("both:4:2"); err != nil {
		t.Fatal(err)
	}
	if dbc.Arrival, err = arrival.Parse("poisson:30"); err != nil {
		t.Fatal(err)
	}
	resched := churnSetting(t, 77)
	resched.RescheduleFailed = true
	harsh := churnSetting(t, 77)
	harsh.Harsh = true
	cases := []struct {
		algo    string
		setting Setting
		want    eventStream
	}{
		{"DSMF", NewSetting(tiny, 2010), eventStream{4124,
			"c788d39e1874dc83fd647c1407c3d61f7db56fd54a6c8b1f371e13d7a37c17db",
			"dd9927937006859dd483e0be3c030ad05d7173fe689786024fe59fac300c1eaa", 0}},
		{"min-min+FCFS", NewSetting(tiny, 1), eventStream{3856,
			"6601ae8da3c6248381b0cda9b7b1bf604d4dfb378f6e827171b7397e062ff12d",
			"ca95d9908e6053c65c30d1a12ae2ecf7180bc2ab74bbec731db3e076c53926eb", 0}},
		{"SMF", NewSetting(tiny, 2010), eventStream{4188,
			"b1731a2746f9e5947f4a1f3ce1b6020ff8561942965725e2f59426f2480373fd",
			"e2b746eed3468b6bd1b6a0c95d344970c01af91d41bf1713c72455721824ac16", 0}},
		{"HEFT", NewSetting(tiny, 7), eventStream{3857,
			"f6d39de2ed3a3a0ad687ba763994c05da7f4a630fa1a4651af087e121c5ca151",
			"068a0779934e41623e43a4b5914037a4d75bc9745bb1b5841aa28de31918f903", 0}},
		{"DBC-ct", dbc, eventStream{1702,
			"b3e574aef2f652fa521227c63ba277e2ff9a2974a2ac9d7dc964de1fe8c613f3",
			"98ee1c21bf82d17e89ea720fd379f2e6fc22204e70900354bed6a4e5f4686389", 230}},
		{"DSMF", resched, eventStream{2870,
			"e873f8d39238f78497c20e4c891deade828cd9a10ddbd1c9467e3dfe1c356447",
			"f696f9ef5fb74942156a34962946b89f069519699f0587236936bd07ab949ffe", 0}},
		{"DHEFT", harsh, eventStream{1537,
			"4a5b9571c524220b683462d59e9dbd559bc065ecea7400b61dbefa99a1a7046d",
			"0cbf24c529658acb90baccae7ab9d90b81b2e21eb86029ae218156107355cd3a", 0}},
	}
	for i, c := range cases {
		if got := tapRun(t, c.setting, c.algo); got != c.want {
			t.Errorf("case %d (%s): event stream\n got %+v\nwant %+v", i, c.algo, got, c.want)
		}
	}
}
