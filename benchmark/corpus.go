package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"wetune"
	"wetune/internal/workload"
)

// Streams keep the seeded generators of one run independent of each other:
// every consumer derives its own source from (seed, stream).
const (
	streamApps = iota
	streamOrder
	streamData
	streamSample
	streamClient // + 1000*phase + lane: one stream per serve phase and client
)

// seedFor mixes the run seed with a stream number (splitmix64), so nearby
// seeds and streams give unrelated generators.
func seedFor(seed int64, stream int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seedFor(seed, stream)))
}

// patternMix pins the benchmark's query mix in per-mille of the generated
// part of the corpus. It restates the weights internal/workload draws its
// patterns with (§8.3: half plain SELECT-WHERE, ~14% rewritable shapes), but
// as exact quotas: workload.GenerateQueries samples the pattern per query, so
// the share of expensive rewritable shapes would otherwise drift by several
// percent from seed to seed and with it every mean-based metric.
var patternMix = []struct {
	tag      string
	perMille int
}{
	{"simple", 493}, {"simple2", 120}, {"order-limit", 100}, {"aggregate", 80},
	{"not-in", 40}, {"exists", 40}, {"union", 30}, {"in-orderby", 20},
	{"join-fk", 15}, {"join-fk-sel", 10}, {"left-join-unique", 10},
	{"ljoin-to-ijoin", 8}, {"distinct-pk", 8}, {"self-in", 12}, {"dup-in", 9},
	{"nested-dup", 5},
}

// query is one corpus entry: the application (schema key), the SQL text and
// the pattern it instantiates ("calcite" for the Calcite-suite sides).
type query struct {
	App string
	SQL string
	Tag string
}

// corpusSize scales the corpus: the full benchmark uses 120 generated queries
// per application and every Calcite pair; -smoke shrinks both.
type corpusSize struct {
	perApp       int
	calcitePairs int // 0 = all
}

var (
	fullCorpus  = corpusSize{perApp: 120}
	smokeCorpus = corpusSize{perApp: 12, calcitePairs: 20}
)

// calciteApp is the schema key of the Calcite-suite queries.
const calciteApp = "__calcite"

// Pool size and plan seed of buildCorpus.
const (
	// poolPerApp queries are generated per application to fill its slots
	// from; the rarest pattern (5 per mille) then misses an application with
	// probability e^-12.
	poolPerApp = 2400
	// planSeed fixes the slot plan; it is not the run's seed.
	planSeed = 20220612
)

// buildCorpus generates the seeded corpus in two steps. The slot plan is the
// same for every seed: the patternMix quotas spread round-robin over the 20
// applications, plus both sides of every Calcite pair, in one fixed random
// order. The seed then picks the query of each slot: the next unused query of
// the slot's pattern from a pool drawn with workload.GenerateQueries under a
// seed derived from (seed, application). So position i holds the same shape
// for every seed and a different literal; a seed changes cache keys, data and
// order of execution, not the amount of work — and a prefix of the corpus is
// the same sample of shapes under every seed.
func buildCorpus(seed int64, size corpusSize) (map[string]*wetune.Schema, []query, error) {
	apps := workload.Apps()
	schemas := make(map[string]*wetune.Schema, len(apps)+1)
	total := size.perApp * len(apps)

	quota := make([]int, len(patternMix))
	left := total
	for i, p := range patternMix {
		quota[i] = total * p.perMille / 1000
		left -= quota[i]
	}
	quota[0] += left  // rounding remainder to the plain shape
	var slots []query // generated slots get their SQL below
	for i, p := range patternMix {
		for k := 0; k < quota[i]; k++ {
			slots = append(slots, query{App: apps[len(slots)%len(apps)].Name, Tag: p.tag})
		}
	}
	schemas[calciteApp] = workload.CalciteSchema()
	pairs := workload.CalcitePairs()
	if size.calcitePairs > 0 && size.calcitePairs < len(pairs) {
		pairs = pairs[:size.calcitePairs]
	}
	for _, p := range pairs {
		slots = append(slots, query{App: calciteApp, SQL: p.Q1, Tag: "calcite"}, query{App: calciteApp, SQL: p.Q2, Tag: "calcite"})
	}
	rand.New(rand.NewSource(planSeed)).Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	pools := make(map[string]map[string][]string, len(apps)) // app → pattern → unused SQL texts
	appSeeds := rngFor(seed, streamApps)
	for _, a := range apps {
		schemas[a.Name] = a.Schema
		a.Seed = appSeeds.Int63()
		byTag := map[string][]string{}
		for _, q := range workload.GenerateQueries(a, poolPerApp) {
			byTag[q.Tag] = append(byTag[q.Tag], q.SQL)
		}
		pools[a.Name] = byTag
	}
	for i := range slots {
		s := &slots[i]
		if s.App == calciteApp {
			continue
		}
		pool := pools[s.App][s.Tag]
		if len(pool) == 0 {
			return nil, nil, fmt.Errorf("corpus: no %q query left for %s — internal/workload no longer generates every pinned pattern", s.Tag, s.App)
		}
		s.SQL, pools[s.App][s.Tag] = pool[0], pool[1:]
	}
	return schemas, slots, nil
}

// zipfS is the popularity skew of the hot working set.
const zipfS = 1.1

// newZipf returns a generator of ranks in [0, n) with P(k) ∝ (1+k)^-zipfS.
func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, zipfS, 1, uint64(n-1))
}

// mutable is a corpus query split around its last integer literal, already
// JSON-escaped, so a unique variant costs one integer append per request.
// Literal-free shapes have ok=false and are always sent unchanged (they stay
// cache hits and are counted as such).
type mutable struct {
	sql, escaped         string // the original text, raw and JSON-escaped
	prefix, suffix       string // JSON-escaped text around the literal
	rawPrefix, rawSuffix string
	ok                   bool
}

// lastIntLiteral finds the last run of digits in s that stands alone as an
// integer token: not glued to an identifier, a decimal point or a quote.
func lastIntLiteral(s string) (start, end int, ok bool) {
	isWord := func(c byte) bool {
		return c == '_' || c == '.' || c == '\'' || c == '"' || c >= '0' && c <= '9' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	for end = len(s); end > 0; end-- {
		if c := s[end-1]; c < '0' || c > '9' {
			continue
		}
		start = end
		for start > 0 && s[start-1] >= '0' && s[start-1] <= '9' {
			start--
		}
		if (start == 0 || !isWord(s[start-1])) && (end == len(s) || !isWord(s[end])) {
			return start, end, true
		}
		end = start + 1 // skip this run; the loop's end-- steps before it
	}
	return 0, 0, false
}

func jsonEscape(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b[1 : len(b)-1])
}

func newMutable(sqlText string) mutable {
	m := mutable{sql: sqlText, escaped: jsonEscape(sqlText)}
	if start, end, ok := lastIntLiteral(sqlText); ok {
		m.prefix, m.suffix = jsonEscape(sqlText[:start]), jsonEscape(sqlText[end:])
		m.rawPrefix, m.rawSuffix = sqlText[:start], sqlText[end:]
		m.ok = true
	}
	return m
}

// literalSpace is the range unique literals are drawn from.
const literalSpace = 1_000_000_000

// text is the SQL of the variant carrying literal v; v < 0 asks for the
// original.
func (m *mutable) text(v int64) string {
	if !m.ok || v < 0 {
		return m.sql
	}
	return m.rawPrefix + strconv.FormatInt(v, 10) + m.rawSuffix
}

// appendJSON appends the JSON-escaped SQL of the variant carrying literal v
// (v < 0: the original).
func (m *mutable) appendJSON(dst []byte, v int64) []byte {
	if !m.ok || v < 0 {
		return append(dst, m.escaped...)
	}
	dst = append(dst, m.prefix...)
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, m.suffix...)
}
