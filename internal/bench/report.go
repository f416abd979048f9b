package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"aion/internal/vfs"
)

// Report gathers every table the harness prints, for the -json output: the
// printed table is the record. Safe for concurrent use.
type Report struct {
	mu     sync.Mutex
	tables []Table
}

// Table is one printed table: its title, its column headers and its rows,
// each cell a number where the printed cell is one and its text otherwise.
type Table struct {
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

// record is t titled title, each cell a number where it parses as one.
func (t *table) record(title string) Table {
	out := Table{Title: title, Columns: t.header}
	for _, row := range t.rows {
		cells := make([]any, len(row))
		for i, cell := range row {
			cells[i] = cell
			if v, err := strconv.ParseFloat(cell, 64); err == nil {
				cells[i] = v
			}
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

// Num returns the number in column of row i: NaN when the table has no such
// column or the cell is text, so a comparison with a missing cell is false.
func (t Table) Num(i int, column string) float64 {
	if v, ok := t.cell(i, column).(float64); ok {
		return v
	}
	return math.NaN()
}

// Text returns the text in column of row i, "" when the cell is a number or
// missing.
func (t Table) Text(i int, column string) string {
	s, _ := t.cell(i, column).(string)
	return s
}

func (t Table) cell(i int, column string) any {
	if k := slices.Index(t.Columns, column); k >= 0 && i < len(t.Rows) && k < len(t.Rows[i]) {
		return t.Rows[i][k]
	}
	return nil
}

func (r *Report) add(t Table) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables = append(r.tables, t)
}

// Tables returns a copy of every table gathered so far.
func (r *Report) Tables() []Table {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Table(nil), r.tables...)
}

// WriteFile writes the report as indented JSON through the vfs seam.
func (r *Report) WriteFile(fs vfs.FS, path string) (err error) {
	fs = vfs.OrOS(fs)
	data, err := json.MarshalIndent(struct {
		GeneratedAt string  `json:"generated_at"`
		Tables      []Table `json:"tables"`
	}{time.Now().UTC().Format(time.RFC3339), r.Tables()}, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	f, err := fs.Create(path)
	if err != nil {
		return fmt.Errorf("bench: create report: %w", err)
	}
	defer vfs.CloseChecked(f, &err)
	if _, err := f.WriteAt(append(data, '\n'), 0); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	return nil
}
