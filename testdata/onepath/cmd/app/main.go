// Command app is the fixture's production caller.
package main

import (
	"encoding/json"
	"fmt"

	"fixture/lib"
)

func main() {
	c := lib.Merge(lib.Config{Size: 2}, lib.Config{})
	b, _ := json.Marshal(lib.NewReply())
	fmt.Println(lib.Scale(lib.NewShape(c.Size), 2), lib.Count([]int{1, -1}).Hits, c.Verbosity(), string(b), lib.NewLabel("x"))
}
