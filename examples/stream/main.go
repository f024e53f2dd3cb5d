// Stream: protecting data that doesn't fit in memory. The streaming
// API chunks an arbitrarily long byte stream into independently
// protected containers, so a corrupted region never takes down more
// than one chunk, and decoding repairs on the fly while data flows
// through ordinary io.Reader/io.Writer plumbing.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"

	arc "repro"
)

func main() {
	a, err := arc.Init(arc.AnyThreads)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()

	// A 2 MiB "checkpoint stream" produced incrementally.
	rng := rand.New(rand.NewSource(5))
	var plain bytes.Buffer
	var protected bytes.Buffer

	w, err := a.NewWriterWith(&protected, 0.2, arc.AnyBW, arc.AnyECC, arc.StreamOptions{ChunkSize: 256 << 10})
	if err != nil {
		log.Fatal(err)
	}
	piece := make([]byte, 8192)
	for i := 0; i < 256; i++ {
		rng.Read(piece)
		plain.Write(piece)
		if _, err := w.Write(piece); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d KiB through %s into %d KiB\n",
		plain.Len()>>10, w.Choice().Config, protected.Len()>>10)

	// Cheap metadata pass: no payload decoding.
	infos, err := arc.InspectStream(bytes.NewReader(protected.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inspect: %d chunks, first = %s (%d -> %d bytes)\n",
		len(infos), infos[0].Config, infos[0].OrigLen, infos[0].EncLen)

	// Soft errors strike several chunks while the stream is at rest.
	buf := protected.Bytes()
	for i := 0; i < 10; i++ {
		bit := rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 0x80 >> (bit % 8)
	}

	// Decode-and-repair while streaming back out.
	r := arc.NewReader(bytes.NewReader(buf), arc.AnyThreads)
	var recovered bytes.Buffer
	if _, err := io.Copy(&recovered, r); err != nil {
		log.Fatal(err)
	}
	rep := r.Report()
	fmt.Printf("decoded %d chunks: repaired %d block(s) along the way\n",
		rep.Chunks, rep.CorrectedBlocks)
	if bytes.Equal(recovered.Bytes(), plain.Bytes()) {
		fmt.Println("stream recovered bit-exact")
	} else {
		log.Fatal("stream mismatch")
	}
}
