package arc_test

// Testable examples: these run under `go test` and render in godoc,
// so the documented usage can never silently rot.

import (
	"bytes"
	"fmt"
	"log"

	arc "repro"
)

// initExample builds a quiet engine for examples (tiny training
// sample, no cache writes).
func initExample() *arc.ARC {
	a, err := arc.InitWithOptions(1, arc.Options{CacheDir: "-", TrainSampleBytes: 16 << 10})
	if err != nil {
		log.Fatal(err)
	}
	return a
}

// Example shows the paper's Algorithm 1: four lines to protect and
// recover a byte stream.
func Example() {
	a := initExample()
	defer a.Close()

	data := bytes.Repeat([]byte("lossy compressed bytes "), 1000)
	enc, err := a.Encode(data, arc.AnyMem, arc.AnyBW, arc.AnyECC)
	if err != nil {
		log.Fatal(err)
	}

	enc.Encoded[5000] ^= 0x04 // a soft error strikes

	dec, err := a.Decode(enc.Encoded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered:", bytes.Equal(dec.Data, data))
	// Output: recovered: true
}

// ExampleARC_Encode demonstrates constraint-driven configuration
// choice: a 20% storage budget with burst protection selects a
// Reed-Solomon configuration.
func ExampleARC_Encode() {
	a := initExample()
	defer a.Close()

	data := make([]byte, 600<<10)
	enc, err := a.Encode(data, 0.2, arc.AnyBW, arc.WithCaps(arc.CorBurst))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("method:", enc.Choice.Config.Method)
	fmt.Println("within budget:", enc.Choice.Overhead <= 0.2)
	// Output:
	// method: ARC_RS
	// within budget: true
}

// ExampleWithErrorsPerMB shows the paper's Section 6.3 constraint: an
// expected rate of one error per MB selects SEC-DED over 8-byte
// blocks.
func ExampleWithErrorsPerMB() {
	a := initExample()
	defer a.Close()

	enc, err := a.Encode(make([]byte, 100<<10), arc.AnyMem, arc.AnyBW, arc.WithErrorsPerMB(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(enc.Choice.Config)
	// Output: secded64
}

// ExampleSecdedEncode exercises the Table-1 engine surface directly:
// SEC-DED protection without the container or optimizer.
func ExampleSecdedEncode() {
	data := []byte("eight-byte codewords protect this text")
	enc := arc.SecdedEncode(data, 64, 1)
	enc[3] ^= 0x20 // single-bit error
	got, rep, err := arc.SecdedDecode(enc, len(data), 64, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("corrected blocks:", rep.CorrectedBlocks)
	fmt.Println(string(got[:10]))
	// Output:
	// corrected blocks: 1
	// eight-byte
}

// ExampleARC_NewWriterWith streams data through chunked protection.
func ExampleARC_NewWriterWith() {
	a := initExample()
	defer a.Close()

	var protected bytes.Buffer
	w, err := a.NewWriterWith(&protected, arc.AnyMem, arc.AnyBW, arc.AnyECC, arc.StreamOptions{ChunkSize: 16 << 10})
	if err != nil {
		log.Fatal(err)
	}
	payload := bytes.Repeat([]byte{9}, 50<<10)
	if _, err := w.Write(payload); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	infos, err := arc.InspectStream(bytes.NewReader(protected.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chunks:", len(infos))
	// Output: chunks: 4
}
