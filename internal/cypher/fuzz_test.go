package cypher

import (
	"context"
	"testing"
	"time"

	"aion/internal/model"
)

// FuzzPrepare: no text makes Prepare panic, and every read statement that
// parses executes against a small seeded engine, on the latest graph, AS OF
// and FROM..TO, without a panic: an error, a deadline's included, is fine.
func FuzzPrepare(f *testing.F) {
	for _, q := range []string{
		`MATCH (n)-[*0..2]->(m) WHERE id(n) = 0 RETURN m`,
		`MATCH (n)-[*1..2]->(m) WHERE id(n) = $id RETURN m`,
		`MATCH (a:Person)-[r:KNOWS {since: 2020}]-(b) WHERE id(a) = 0 RETURN r, b.name ORDER BY b.name DESC LIMIT 2`,
		`MATCH (a)-[r]->(b)-[s]->(c), (c)<-[q]-(d) WHERE id(a) = 0 RETURN count(*)`,
		`MATCH (a), (b) WHERE id(a) = 0 AND id(b) = 2 RETURN a, b`,
		`MATCH (n {name: 'alice'}) WHERE n.age >= 30 OR NOT n.name = "bob" RETURN n.age + 1, id(n)`,
		`MATCH (n) WHERE APPLICATION_TIME CONTAINED IN (1, 9) RETURN n`,
		`CALL aion.expand(0, 'out', 2, 3)`,
		`CALL aion.relationships(1, 'both', 0, 4)`,
		`USE GDB FOR SYSTEM_TIME BETWEEN 1 AND 4 MATCH (n) WHERE id(n) = 0 RETURN n`,
		`USE GDB FOR SYSTEM_TIME AS OF 9223372036854775807 MATCH (n) RETURN count(*)`,
		`CALL aion.graph(9223372036854775807)`,
		`CALL aion.expand(0, 'out', 2, 9223372036854775807)`,
	} {
		f.Add(q)
	}
	e := seed(f)
	params := map[string]model.Value{"id": model.IntValue(0)}
	f.Fuzz(func(t *testing.T, q string) {
		for _, clause := range []string{"", "USE GDB FOR SYSTEM_TIME AS OF 3 ", "USE GDB FOR SYSTEM_TIME FROM 1 TO 4 "} {
			st, err := e.Prepare(clause + q)
			if err != nil || IsWrite(st) {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			e.ExecContext(ctx, st, params)
			cancel()
		}
	})
}
