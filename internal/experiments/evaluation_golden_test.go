package experiments

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"d2dhb/internal/metrics"
)

// evaluationGolden holds the result of every exported Section V experiment
// at DefaultSeed, each float at full precision. cmd/d2dbench's paper.golden
// rounds to two decimals, so it cannot tell a fold that keeps every value
// from one that moves a value in its third digit; this file can.
const evaluationGolden = "testdata/evaluation.golden"

// TestEvaluationGolden runs every entry of Evaluation and diffs the dump
// of their results against the committed file. D2D_REGEN_GOLDEN=1 rewrites
// it. Each result must print one list of blocks per id of its entry.
func TestEvaluationGolden(t *testing.T) {
	var got bytes.Buffer
	for _, e := range Evaluation {
		v, err := e.Run(DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if blocks, err := v.Blocks(); err != nil || len(blocks) != len(e.IDs) {
			t.Fatalf("%s printed %d lists of blocks (%v) for ids %q", e.Name, len(blocks), err, e.IDs)
		}
		fmt.Fprintf(&got, "== %s\n", e.Name)
		dumpValue(&got, "", reflect.ValueOf(v))
		got.WriteString("\n")
	}
	if os.Getenv("D2D_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(evaluationGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", evaluationGolden, got.Len())
		return
	}
	want, err := os.ReadFile(evaluationGolden)
	if err != nil {
		t.Fatalf("golden unreadable (regenerate with D2D_REGEN_GOLDEN=1): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got %q\nwant %q", evaluationGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("dump has %d lines, %s has %d", len(gl), evaluationGolden, len(wl))
}

// BenchmarkEvaluation times each entry of Evaluation, so `go test -bench
// Evaluation` regenerates every table and figure of the paper's Section V.
func BenchmarkEvaluation(b *testing.B) {
	for _, e := range Evaluation {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(DefaultSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dumpValue writes v as indented text: floats at full precision, tables as
// their rendering, pointers followed, map keys in order, no addresses.
func dumpValue(b *bytes.Buffer, indent string, v reflect.Value) {
	if v.CanInterface() {
		if t, ok := v.Interface().(*metrics.Table); ok && t != nil {
			b.WriteString("table\n" + t.String())
			return
		}
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil\n")
			return
		}
		dumpValue(b, indent, v.Elem())
	case reflect.Struct:
		b.WriteString("{\n")
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(indent + "  " + v.Type().Field(i).Name + ": ")
			dumpValue(b, indent+"  ", v.Field(i))
		}
		b.WriteString(indent + "}\n")
	case reflect.Slice, reflect.Array:
		b.WriteString("[\n")
		for i := 0; i < v.Len(); i++ {
			b.WriteString(indent + "  ")
			dumpValue(b, indent+"  ", v.Index(i))
		}
		b.WriteString(indent + "]\n")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		b.WriteString("map[\n")
		for _, k := range keys {
			b.WriteString(indent + "  " + fmt.Sprint(k) + ": ")
			dumpValue(b, indent+"  ", v.MapIndex(k))
		}
		b.WriteString(indent + "]\n")
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64) + "\n")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10) + "\n")
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10) + "\n")
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()) + "\n")
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()) + "\n")
	default:
		panic(fmt.Sprintf("dumpValue: unhandled kind %s", v.Kind()))
	}
}
