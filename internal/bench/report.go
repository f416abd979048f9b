package bench

import (
	"encoding/json"
	"fmt"
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

func (r *Report) add(title string, t *table) {
	if r == nil {
		return
	}
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables = append(r.tables, out)
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
