package synth

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteSeriesCSV exports one scan's region×time series as CSV: one row
// per region, one column per time point, with a leading region column.
func WriteSeriesCSV(w io.Writer, scan *Scan) error {
	cw := csv.NewWriter(w)
	rows, cols := scan.Series.Dims()
	header := make([]string, cols+1)
	header[0] = "region"
	for t := 0; t < cols; t++ {
		header[t+1] = "t" + strconv.Itoa(t)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, cols+1)
	for i := 0; i < rows; i++ {
		rec[0] = strconv.Itoa(i)
		row := scan.Series.RowView(i)
		for t, v := range row {
			rec[t+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePerformanceCSV exports the per-subject task performance table.
func WritePerformanceCSV(w io.Writer, c *HCPCohort) error {
	cw := csv.NewWriter(w)
	header := []string{"subject"}
	for _, t := range PerformanceTasks {
		header = append(header, t.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for s := 0; s < c.Params.Subjects; s++ {
		rec := []string{strconv.Itoa(s)}
		for _, t := range PerformanceTasks {
			rec = append(rec, strconv.FormatFloat(c.Performance[t][s], 'f', 3, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
