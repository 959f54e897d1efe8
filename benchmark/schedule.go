package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"vxml/internal/bench"
	"vxml/internal/datagen"
)

// schedule is everything the program under test is given in one run: the
// distinct inputs (query texts or XML fragments) and, per op, which of
// them it runs in which order. The seed is its only randomness, so one
// (workload, sizes, seconds, seed) always yields the same bytes.
//
// The seed never changes what an op costs, only its order: the datasets,
// the population of texts and their popularity ranks, and the fragment
// pool are fixed by the sizes. A run on another seed is another sample of
// the same workload, which is what lets runs on different seeds be
// compared at all.
type schedule struct {
	Workload string
	Seed     int64
	Inputs   []string
	// Labels names each input in reports: the paper's query id, a text
	// family, or the fragment number.
	Labels []string
	Ops    [][]int32
	// Warm is how many leading ops are run untimed: a multiple of the
	// set-up passes, each of which runs its share.
	Warm int
}

// coldQueries lists, per cold workload, the paper queries of one op and
// the dataset each runs on.
var coldQueries = map[string][]bench.QueryID{
	"cold_regular": {bench.KQ1, bench.KQ2, bench.KQ3, bench.KQ4,
		bench.SQ1, bench.SQ2, bench.SQ3, bench.SQ4, bench.MQ1, bench.MQ2},
	"cold_irregular": {bench.TQ1, bench.TQ3, bench.TQ2},
}

// newSchedule generates the schedule of one run.
func newSchedule(workload string, sz sizes, seconds float64, seed int64) (*schedule, error) {
	rate, ok := sz.OpsPerSecond[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	timed := int(math.Round(rate * seconds))
	if timed < 1 {
		timed = 1
	}
	// The warm-up is 10% of the whole schedule, in equal slices, one per
	// set-up pass.
	passes := sz.SetupPasses[workload]
	warm := ((timed+8)/9 + passes - 1) / passes * passes
	s := &schedule{Workload: workload, Seed: seed, Warm: warm}
	r := rand.New(rand.NewSource(seed))
	switch workload {
	case "cold_regular", "cold_irregular":
		qs := coldQueries[workload]
		for _, q := range qs {
			s.Inputs = append(s.Inputs, bench.QuerySources[q])
			s.Labels = append(s.Labels, string(q))
		}
		// Every op runs every query once, cold; the seed picks the order.
		for i := 0; i < warm+timed; i++ {
			op := make([]int32, len(qs))
			for j, k := range r.Perm(len(qs)) {
				op[j] = int32(k)
			}
			s.Ops = append(s.Ops, op)
		}
	case "serve_zipf":
		s.Inputs, s.Labels = serveTexts(sz.ServeTexts)
		z := rand.NewZipf(r, 1.1, 1, uint64(len(s.Inputs)-1))
		for i := 0; i < warm+timed; i++ {
			s.Ops = append(s.Ops, []int32{int32(z.Uint64())})
		}
	case "ingest_append":
		frags, err := fragments(sz)
		if err != nil {
			return nil, err
		}
		s.Inputs = frags
		for i := range frags {
			s.Labels = append(s.Labels, fmt.Sprintf("fragment%d", i))
		}
		// Whole rounds over the pool, each in a seeded order, so the XML
		// bytes ingested (and with them disk_bytes_per_xml_byte) do not
		// depend on the seed.
		rounds := (warm + timed + len(frags) - 1) / len(frags)
		for i := 0; i < rounds; i++ {
			for _, k := range r.Perm(len(frags)) {
				s.Ops = append(s.Ops, []int32{int32(k)})
			}
		}
		s.Warm = len(s.Ops) / 10 / passes * passes
		if s.Warm < passes {
			s.Warm = passes
		}
	}
	return s, nil
}

// serveTexts builds the population of n distinct query texts in
// popularity order (index 0 is the hottest). It does not depend on the
// seed. The population is the KQ1 threshold family (one result size per
// threshold), the KQ4 region family (six large results, one of them hot),
// and three re-spellings of each of the hottest texts, which only the
// canonical-form plan cache can recognise as repeats.
func serveTexts(n int) (texts, labels []string) {
	const spellings = 3
	hot := 16
	if n/8 < hot {
		hot = n / 8
	}
	regions := []string{"australia", "africa", "asia", "europe", "namerica", "samerica"}
	thresholds := n - spellings*hot - len(regions)

	type text struct{ q, label string }
	base := make([]text, 0, thresholds+len(regions))
	// A fixed shuffle, so that result size is not monotonic in rank.
	for _, k := range rand.New(rand.NewSource(dataSeed)).Perm(thresholds) {
		base = append(base, text{fmt.Sprintf(
			"for $t in /site/closed_auctions/closed_auction where $t/price >= %.1f return $t/price",
			float64(k)*200/float64(thresholds)), "KQ1"})
	}
	for j, region := range regions {
		at := 5 + j*len(base)/len(regions)
		q := text{fmt.Sprintf("for $i in /site/regions/%s/item return <item_info>{$i/description}</item_info>", region), "KQ4"}
		base = append(base[:at], append([]text{q}, base[at:]...)...)
	}

	all := append([]text(nil), base[:hot]...)
	for i := 0; i < spellings; i++ {
		for _, t := range base[:hot] {
			all = append(all, text{respell(t.q, i), t.label + "-respelled"})
		}
	}
	all = append(all, base[hot:]...)
	for _, t := range all {
		texts = append(texts, t.q)
		labels = append(labels, t.label)
	}
	return texts, labels
}

// respell returns the i-th alternative spelling of a query: same
// canonical form, different bytes.
func respell(q string, i int) string {
	switch i {
	case 0:
		return strings.ReplaceAll(q, " ", "  ")
	case 1:
		return strings.NewReplacer("$t", "$auction", "$i", "$item").Replace(q)
	default:
		q = strings.NewReplacer("$t", "$x", "$i", "$y").Replace(q)
		return strings.NewReplacer(" where ", "\n\twhere ", " return ", "\n\treturn ").Replace(q)
	}
}

// fragments cuts the fragment pool out of a second XMark document: each
// fragment is <site><closed_auctions> around FragmentAuctions consecutive
// closed_auction elements.
func fragments(sz sizes) ([]string, error) {
	var doc bytes.Buffer
	if err := (datagen.XMark{Scale: sz.FragmentScale, Seed: dataSeed + 1}).Generate(&doc); err != nil {
		return nil, err
	}
	const open, end = "<closed_auction>", "</closed_auction>"
	rest := doc.String()
	var out []string
	for len(out) < sz.FragmentPool {
		var b strings.Builder
		b.WriteString("<site><closed_auctions>")
		for i := 0; i < sz.FragmentAuctions; i++ {
			from := strings.Index(rest, open)
			to := strings.Index(rest, end)
			if from < 0 || to < from {
				return nil, fmt.Errorf("fragment document (xmark scale=%g) has too few closed auctions for %d fragments of %d",
					sz.FragmentScale, sz.FragmentPool, sz.FragmentAuctions)
			}
			b.WriteString(rest[from : to+len(end)])
			rest = rest[to+len(end):]
		}
		b.WriteString("</closed_auctions></site>")
		out = append(out, b.String())
	}
	return out, nil
}
