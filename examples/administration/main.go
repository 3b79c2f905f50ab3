// Administration shows the operational substrate around the language:
// catalog DDL, CSV import, schema constraints (types / keys / foreign
// keys — the paper's §8 metadata extension), reified metadata queries,
// evaluation plans, and checksummed snapshots.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"idl"
	"idl/internal/core"
	"idl/internal/storage"
)

func main() {
	opts := core.DefaultOptions()
	opts.ExposeMeta = true // reify schema as a queryable `meta` database
	db := idl.OpenWithOptions(opts)

	fmt.Println("== Load a relation from CSV ==")
	csv := `date,stkCode,clsPrice
3/1/85,hp,50
3/2/85,hp,55
3/3/85,hp,62
3/1/85,sun,201
`
	rel, err := storage.ImportCSV(strings.NewReader(csv))
	must(err)
	imported := 0
	for _, e := range rel.Elems() {
		if _, err := db.Catalog().Insert("euter", "r", e.(*idl.Tuple)); err != nil {
			log.Fatal(err)
		}
		imported++
	}
	fmt.Printf("   imported %d tuples into euter.r\n", imported)

	fmt.Println("\n== Declare integrity constraints (types, key, foreign key) ==")
	db.Catalog().Insert("registry", "listed", idl.Tup("code", "hp"), idl.Tup("code", "sun"))
	must(db.Schema().Declare(idl.RelDecl{
		DB: "euter", Rel: "r",
		Attrs: []idl.AttrDecl{
			{Name: "date", Type: idl.DateType, Required: true},
			{Name: "stkCode", Type: idl.StringType, Required: true},
			{Name: "clsPrice", Type: idl.NumberType},
		},
		Key:         []string{"date", "stkCode"},
		ForeignKeys: []idl.ForeignKey{{From: "stkCode", RefDB: "registry", RefRel: "listed", To: "code"}},
	}))
	must(db.ValidateSchema())
	fmt.Println("   bulk-loaded data validates cleanly")

	fmt.Println("\n== Constraints guard every update request ==")
	if _, err := db.Exec("?.euter.r+(.date=3/1/85, .stkCode=hp, .clsPrice=51)"); err != nil {
		fmt.Println("   duplicate key rejected:", firstLine(err))
	}
	if _, err := db.Exec("?.euter.r+(.date=3/4/85, .stkCode=unlisted, .clsPrice=9)"); err != nil {
		fmt.Println("   unlisted stock rejected:", firstLine(err))
	}
	if _, err := db.Exec("?.euter.r+(.date=3/4/85, .stkCode=sun, .clsPrice=190)"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("   valid insert accepted")

	fmt.Println("\n== The schema is data: reified metadata queries ==")
	res, err := db.Query("?.meta.relations(.db=D, .rel=R, .tuples=N)")
	must(err)
	res.Sort()
	for _, row := range res.Rows() {
		fmt.Printf("   %s.%s has %s tuples\n", row.Get("D"), row.Get("R"), row.Get("N"))
	}

	fmt.Println("\n== Evaluation plans ==")
	plan, err := db.Explain("?.euter.r(.stkCode=hp, .clsPrice=P), .euter.r~(.stkCode=hp, .clsPrice>P)")
	must(err)
	for _, line := range strings.Split(plan, "\n") {
		fmt.Println("  ", line)
	}

	fmt.Println("\n== Checksummed snapshot round trip ==")
	dir, err := os.MkdirTemp("", "idl-admin-*")
	must(err)
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "universe.idl")
	must(db.Save(path))
	restored, err := idl.OpenSnapshot(path)
	must(err)
	res, err = restored.Query("?.euter.r(.stkCode=S, .clsPrice>100)")
	must(err)
	fmt.Printf("   restored universe answers: %d distinct stocks above 100\n", res.Len())
}

func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, ';'); i > 0 {
		return s[:i]
	}
	return s
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
