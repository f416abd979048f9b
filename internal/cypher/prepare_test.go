package cypher

import (
	"context"
	"expvar"
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aion/internal/model"
)

// statementCache reads Prepare's cache through the "cypher" entry NewEngine
// added to the system's metrics registry: how many statements it holds, and
// how many of its lookups hit and missed.
func statementCache(e *Engine) (cached int, hits, misses uint64) {
	m := e.Sys.Metrics.Get("cypher").(expvar.Func).Value().(map[string]uint64)
	return int(m["cached"]), m["hits"], m["misses"]
}

// corpus returns every string literal in this package's test files that
// parses as a statement: the texts the tests send, wherever they are spelt.
func corpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var texts []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || seen[s] {
				return true
			}
			seen[s] = true
			if _, err := Parse(s); err == nil {
				texts = append(texts, s)
			}
			return true
		})
	}
	return texts
}

// TestCachedStatementsAreNotMutated runs every statement text of the test
// corpus twice through one engine, the second time from the cache, and then
// wants each cached statement equal to a fresh parse of its text: execution
// never writes to a statement, which Prepare shares across queries. Each
// result's columns are overwritten too, so a result that aliases its
// statement shows up the same way; and each text's second result must carry
// the columns of its first, so one that aliases the procedure table, which
// every CALL of a procedure shares, shows up as well.
func TestCachedStatementsAreNotMutated(t *testing.T) {
	e := seed(t)
	texts := corpus(t)
	if len(texts) < 50 {
		t.Fatalf("corpus holds %d statement texts, want the package's tests' (50 or more)", len(texts))
	}
	params := map[string]model.Value{
		"id": model.IntValue(0), "ts": model.IntValue(3), "t": model.IntValue(3),
		"who": model.StringValue("bob"),
	}
	columns := map[string][]string{} // each text's first columns
	for range 2 {
		for _, q := range texts {
			// Some texts are only meant to run until their deadline.
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			res, err := e.QueryContext(ctx, q, params)
			cancel()
			if err == nil {
				if first, ok := columns[q]; !ok {
					columns[q] = slices.Clone(res.Columns)
				} else if !slices.Equal(res.Columns, first) {
					t.Errorf("%q: columns %q after its first result's were overwritten, want %q", q, res.Columns, first)
				}
				for i := range res.Columns {
					res.Columns[i] = "overwritten"
				}
			}
		}
	}
	if cached, _, misses := statementCache(e); cached != len(texts) || misses != uint64(len(texts)) {
		t.Fatalf("cache holds %d statements after %d misses, want %d of each", cached, misses, len(texts))
	}
	for _, q := range texts {
		want, _ := Parse(q)
		if got := e.stmts[q]; !reflect.DeepEqual(got, want) {
			t.Errorf("%q: execution wrote to its cached statement", q)
		}
	}
}

// TestConcurrentCachedStatement shares one cached read text among reader
// goroutines and one cached blind-CREATE text among writer goroutines under
// the race detector: the statements are read concurrently, never written.
func TestConcurrentCachedStatement(t *testing.T) {
	e := newEngine(t)
	const (
		create  = "CREATE (n:C {w: $w, tag: 'x'}) RETURN id(n), n.w"
		read    = "MATCH (n:C {tag: 'x'}) WHERE n.w >= $min RETURN n.w ORDER BY n.w DESC LIMIT 3"
		writers = 4
		readers = 4
		each    = 50
	)
	ctx := context.Background()
	for _, q := range []string{create, read} {
		if _, err := e.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := e.QueryContext(ctx, create, map[string]model.Value{"w": model.IntValue(int64(w*each + i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := e.QueryContext(ctx, read, map[string]model.Value{"min": model.IntValue(int64(i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res := mustQuery(t, e, "MATCH (n:C) RETURN count(*)", nil)
	if got := res.Rows[0][0].S.Int(); got != writers*each {
		t.Fatalf("%d nodes created, want %d", got, writers*each)
	}
	if _, hits, misses := statementCache(e); misses != 3 || hits != (writers+readers)*each {
		t.Fatalf("%d hits, %d misses; want %d and 3", hits, misses, (writers+readers)*each)
	}
	for _, q := range []string{create, read} {
		want, _ := Parse(q)
		if got := e.stmts[q]; !reflect.DeepEqual(got, want) {
			t.Errorf("%q: cached statement changed under concurrent execution", q)
		}
	}
}

// TestStatementCacheBound: Prepare parses a text once and then serves it
// from the cache; the cache never holds more than its bound and empties when
// a miss finds it full; a text that fails to parse is not cached and returns
// its error on every call; a text over the length cap parses every time.
func TestStatementCacheBound(t *testing.T) {
	e := newEngine(t)
	const q = "MATCH (n) RETURN n"
	first, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if st, err := e.Prepare(q); err != nil || st != first {
			t.Fatalf("Prepare(%q) = %p, %v; want the cached %p", q, st, err, first)
		}
	}
	if cached, hits, misses := statementCache(e); cached != 1 || hits != 2 || misses != 1 {
		t.Fatalf("after one text three times: %d cached, %d hits, %d misses; want 1, 2, 1", cached, hits, misses)
	}

	for i := 1; i <= stmtCacheBound+10; i++ {
		if _, err := e.Prepare(fmt.Sprintf("MATCH (n) RETURN n LIMIT %d", i)); err != nil {
			t.Fatal(err)
		}
		// 1+i texts so far: full at i = bound-1, emptied by the next miss.
		want := i%stmtCacheBound + 1
		if cached, _, _ := statementCache(e); cached != want || cached > stmtCacheBound {
			t.Fatalf("after %d more texts the cache holds %d, want %d", i, cached, want)
		}
	}

	const bad = "MATCH (n) RETURN n LIMIT 'x'"
	cached, _, misses := statementCache(e)
	for i := 1; i <= 2; i++ {
		if _, err := e.Prepare(bad); err == nil {
			t.Fatalf("call %d of Prepare(%q) returned no error", i, bad)
		}
	}
	if c, _, m := statementCache(e); c != cached || m != misses+2 {
		t.Fatalf("a bad text twice: %d cached, %d misses; want %d and %d", c, m, cached, misses+2)
	}

	long := "MATCH (n) RETURN n // " + strings.Repeat("x", stmtCacheMaxText)
	for i := 1; i <= 2; i++ {
		if _, err := e.Prepare(long); err != nil {
			t.Fatal(err)
		}
	}
	if c, _, m := statementCache(e); c != cached || m != misses+4 {
		t.Fatalf("a long text twice: %d cached, %d misses; want %d and %d", c, m, cached, misses+4)
	}
}
