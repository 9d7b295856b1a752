package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/emissions"
	"repro/internal/labels"
	"repro/internal/lb"
	"repro/internal/model"
	"repro/internal/promql"
	"repro/internal/tsdb"
)

// The wrappers below sit on the interfaces between layers. Each times the
// call into the next layer as a span; with a nil tracer they only forward
// (and keep the counts the checks need).

// tracedFetcher renders the in-process exporters directly, as
// cluster.New's fetcher does, opening the per-target scrape span.
type tracedFetcher struct{ p *platform }

func (f *tracedFetcher) Fetch(_ context.Context, target string) (io.ReadCloser, error) {
	p := f.p
	exp, ok := p.exporters[target]
	if !ok {
		return nil, fmt.Errorf("no exporter for target %q", target)
	}
	var tgt int32
	if p.tr != nil {
		tgt = p.tr.Start("scrape.target", p.scrapeSpan)
		p.targetMu.Lock()
		p.targetSpans[target] = tgt
		p.targetMu.Unlock()
	}
	sp := p.tr.Start("exporter.render", tgt)
	body := exp.Render()
	p.tr.End(sp, int64(len(body)), 0)
	if p.readback.every > 0 {
		h := fnv.New32a()
		io.WriteString(h, target)
		if (int64(h.Sum32())+p.tick)%int64(p.readback.every) == 0 {
			p.readback.add(target, p.clock.UnixMilli(), body)
		}
	}
	return io.NopCloser(strings.NewReader(body)), nil
}

// tracedBatch wraps the head's batch appender for one scrape. The scrape
// commits twice (metric samples, then staleness markers and synthetics);
// the second commit ends the target span the fetcher opened.
type tracedBatch struct {
	inner   *tsdb.Appender
	p       *platform
	span    int32
	commits int
}

func (b *tracedBatch) Add(ls labels.Labels, t int64, v float64) {
	if b.p.tr != nil && b.span == 0 {
		b.p.targetMu.Lock()
		b.span = b.p.targetSpans[ls.Get("instance")]
		b.p.targetMu.Unlock()
	}
	b.inner.Add(ls, t, v)
}

func (b *tracedBatch) Commit() (int, error) {
	sp := b.p.tr.Start("tsdb.commit", b.span)
	n, err := b.inner.Commit()
	b.p.tr.End(sp, int64(n), 0)
	b.p.samples.Add(int64(n))
	b.commits++
	if b.commits == 2 {
		b.p.tr.End(b.span, 0, 0)
	}
	return n, err
}

// hintedQueryable is what the engine and promapi see of storage.
type hintedQueryable interface {
	promql.Queryable
	promql.HintedQueryable
	LabelNames() []string
	LabelValues(name string) []string
}

// tracedQuery times every Select into storage under the caller's current
// span; N is the series returned, M the samples.
type tracedQuery struct {
	name   string
	q      hintedQueryable
	tr     *Tracer
	parent *int32
}

func (t *tracedQuery) Select(mint, maxt int64, ms ...*labels.Matcher) ([]model.Series, error) {
	sp := t.tr.Start(t.name, *t.parent)
	out, err := t.q.Select(mint, maxt, ms...)
	t.end(sp, out)
	return out, err
}

func (t *tracedQuery) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	sp := t.tr.Start(t.name, *t.parent)
	out, err := t.q.SelectWithHints(h, ms...)
	t.end(sp, out)
	return out, err
}

func (t *tracedQuery) end(sp int32, out []model.Series) {
	if t.tr == nil {
		return
	}
	var n int64
	for _, s := range out {
		n += int64(len(s.Samples))
	}
	t.tr.End(sp, int64(len(out)), n)
}

func (t *tracedQuery) LabelNames() []string             { return t.q.LabelNames() }
func (t *tracedQuery) LabelValues(name string) []string { return t.q.LabelValues(name) }

// tracedAppender is the rules manager's destination: it counts rule
// outputs and times each append into the head.
type tracedAppender struct {
	inner *tsdb.DB
	p     *platform
}

func (a *tracedAppender) Append(ls labels.Labels, t int64, v float64) error {
	sp := a.p.tr.Start("tsdb.append", a.p.rulesSpan)
	err := a.inner.Append(ls, t, v)
	a.p.tr.End(sp, 0, 0)
	if err == nil {
		a.p.samples.Add(1)
	}
	return err
}

// tracedFactor times the emission-factor provider; it also remembers the
// last factor so the emissions check uses the value the updater saw.
type tracedFactor struct {
	inner  emissions.Provider
	tr     *Tracer
	parent func() int32
	last   float64
}

func (f *tracedFactor) Name() string { return f.inner.Name() }

func (f *tracedFactor) Factor(ctx context.Context, zone string) (emissions.Factor, error) {
	sp := f.tr.Start("emissions.factor", f.parent())
	v, err := f.inner.Factor(ctx, zone)
	f.tr.End(sp, 0, 0)
	if err == nil {
		f.last = v.GramsPerKWh
	}
	return v, err
}

// tracedChecker times the LB's ownership checks.
type tracedChecker struct {
	inner  lb.OwnershipChecker
	tr     *Tracer
	parent *int32
}

func (c *tracedChecker) Owns(ctx context.Context, user, uuid string) (bool, error) {
	sp := c.tr.Start("lb.authz", *c.parent)
	ok, err := c.inner.Owns(ctx, user, uuid)
	c.tr.End(sp, 0, 0)
	return ok, err
}

func (c *tracedChecker) IsAdmin(ctx context.Context, user string) bool {
	sp := c.tr.Start("lb.authz", *c.parent)
	ok := c.inner.IsAdmin(ctx, user)
	c.tr.End(sp, 0, 0)
	return ok
}

// handlerTransport is the LB's backend round trip, served in process by
// the promapi handler (no sockets), timed as the lb.backend span; the
// promapi span inside it parents the Selects.
type handlerTransport struct {
	h       http.Handler
	tr      *Tracer
	parent  *int32
	promapi *int32
}

func (t *handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sp := t.tr.Start("lb.backend", *t.parent)
	*t.promapi = t.tr.Start("promapi.query", sp)
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	t.tr.End(*t.promapi, 0, 0)
	*t.promapi = 0
	t.tr.End(sp, 0, 0)
	return rec.Result(), nil
}
