package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"vxml/internal/bench"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
)

// priceVector is the data vector every appended closed_auction extends.
const priceVector = "/site/closed_auctions/closed_auction/price"

// ingestWorkload is ingest_append: one op appends one fragment to an open
// repository and asserts, in O(1), that the catalog saw its values.
type ingestWorkload struct {
	s  *schedule
	sz sizes

	repo *vectorize.Repository

	// Per fragment: its closed auctions, and how many have price >= 40
	// (KQ1's predicate), counted from the fragment text.
	auctions, matches []int64
	appended          []int32 // fragments appended so far, in order
	appendedBytes     int64
}

func newIngestWorkload(s *schedule, sz sizes) (*ingestWorkload, error) {
	w := &ingestWorkload{s: s, sz: sz}
	for _, frag := range s.Inputs {
		n, m, err := countPrices(frag)
		if err != nil {
			return nil, err
		}
		w.auctions = append(w.auctions, n)
		w.matches = append(w.matches, m)
	}
	return w, nil
}

// countPrices returns how many <price> elements doc has and how many of
// them hold a value >= 40. In XMark only closed auctions carry a price.
func countPrices(doc string) (n, atLeast40 int64, err error) {
	const open = "<price>"
	for {
		i := strings.Index(doc, open)
		if i < 0 {
			return n, atLeast40, nil
		}
		doc = doc[i+len(open):]
		j := strings.Index(doc, "<")
		if j < 0 {
			return 0, 0, fmt.Errorf("unterminated <price>")
		}
		p, err := strconv.ParseFloat(doc[:j], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("price %q: %w", doc[:j], err)
		}
		n++
		if p >= 40 {
			atLeast40++
		}
	}
}

func (w *ingestWorkload) setUp(dir string, tr *tracer) (setupInfo, error) {
	// A fresh repository: nothing appended yet.
	w.appended, w.appendedBytes = nil, 0
	return buildAll(dir, w.datasets(), vectorize.Options{FS: tr.fs()})
}

func (w *ingestWorkload) open(dir string, tr *tracer) error {
	_, repoDir := w.sz.IngestData.paths(dir)
	repo, err := vectorize.Open(repoDir, vectorize.Options{FS: tr.fs()})
	if err != nil {
		return err
	}
	w.repo = repo
	return nil
}

func (w *ingestWorkload) close() error {
	if w.repo == nil {
		return nil
	}
	err := w.repo.Close()
	w.repo = nil
	return err
}

func (w *ingestWorkload) priceCount() (int64, error) {
	n, ok := w.repo.Vectors.(*vector.DiskSet).Count(priceVector)
	if !ok {
		return 0, fmt.Errorf("no vector %s", priceVector)
	}
	return n, nil
}

func (w *ingestWorkload) do(c *client, i int, tr *tracer) error {
	in := w.s.Ops[i][0]
	before, err := w.priceCount()
	if err != nil {
		return err
	}
	t := tr.begin()
	err = w.repo.Append(strings.NewReader(w.s.Inputs[in]))
	tr.end(spAppend, t)
	if err != nil {
		return err
	}
	w.appended = append(w.appended, in)
	w.appendedBytes += int64(len(w.s.Inputs[in]))
	after, err := w.priceCount()
	if err != nil {
		return err
	}
	if after != before+w.auctions[in] {
		return fmt.Errorf("append of %s not visible: %s holds %d values, want %d",
			w.s.Labels[in], priceVector, after, before+w.auctions[in])
	}
	return nil
}

func (w *ingestWorkload) clients() int { return 1 }

func (w *ingestWorkload) xmlAppended() int64 { return w.appendedBytes }

func (w *ingestWorkload) skeletonUses(dir string) map[string][2]float64 {
	// Append re-encodes the skeleton and rebuilds the class registry; it
	// decodes nothing.
	_, repoDir := w.sz.IngestData.paths(dir)
	return map[string][2]float64{repoDir: {0, 1}}
}

func (w *ingestWorkload) datasets() []dataset { return []dataset{w.sz.IngestData} }

// verify asks KQ1 of the grown repository: it must return the base
// document's matches plus every appended fragment's, now and — every
// append having been acknowledged — after a restart.
func (w *ingestWorkload) verify(dir string, v *verifier, orc *oracle) error {
	xmlPath, _ := w.sz.IngestData.paths(dir)
	base, err := os.ReadFile(xmlPath)
	if err != nil {
		return err
	}
	_, want, err := countPrices(string(base))
	if err != nil {
		return err
	}
	for _, in := range w.appended {
		want += w.matches[in]
	}
	for _, when := range []string{"before", "after"} {
		xml, err := evalXML(w.repo, bench.QuerySources[bench.KQ1], "KQ1", nil)
		if err != nil {
			return fmt.Errorf("KQ1 %s restart: %w", when, err)
		}
		if got := int64(strings.Count(xml, "<price>")); got != want {
			return fmt.Errorf("KQ1 %s restart returns %d prices, want %d (base + %d appends)",
				when, got, want, len(w.appended))
		}
		if when == "before" {
			if err := w.close(); err != nil {
				return err
			}
			if err := w.open(dir, nil); err != nil {
				return fmt.Errorf("reopen after appends: %w", err)
			}
		}
	}
	return nil
}
