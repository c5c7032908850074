package bench

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
)

// saveCSV writes one experiment's data series as <CSVDir>/<name>.csv for
// external plotting; it is a no-op when Options.CSVDir is empty. Rows are
// written as-is below the header.
func saveCSV(o *Options, name string, header []string, rows [][]string) error {
	if o.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.CSVDir, name+".csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return err
	}
	for _, r := range rows {
		if len(r) != len(header) {
			f.Close()
			return fmt.Errorf("bench: csv %s: row has %d fields, header %d", name, len(r), len(header))
		}
		if err := w.Write(r); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func itoa(v int64) string  { return fmt.Sprintf("%d", v) }
func utoa(v uint64) string { return fmt.Sprintf("%d", v) }
func btoa(v bool) string   { return fmt.Sprintf("%v", v) }
