//! Streaming compression: write a column to a file row-group by row-group
//! (bounded memory), then read it back incrementally — the I/O-friendly
//! surface a big-data-format writer would use.
//!
//! ```sh
//! cargo run --release --example streaming
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::time::Instant;

use alp::pipeline::{PipelineConfig, PipelinedColumnWriter};
use alp::stream::{ColumnReader, ColumnWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("alp_streaming_demo.alps");

    // Feed 2M values in small chunks, as a sensor pipeline would: the writer
    // holds at most one row-group (100 * 1024 values) in memory regardless of
    // the column's total size.
    let total = 2_000_000usize;
    let source = datagen::generate("Stocks-DE", total, 7);
    {
        let mut writer = ColumnWriter::<f64, _>::new(BufWriter::new(File::create(&path)?));
        for chunk in source.chunks(10_000) {
            writer.push(chunk)?;
        }
        let summary = writer.finish()?;
        println!(
            "wrote {} values in {} row-groups, {} bytes on disk ({:.2} bits/value)",
            summary.values,
            summary.rowgroups,
            summary.total_bytes,
            summary.payload_bytes as f64 * 8.0 / summary.values as f64
        );
    }

    // Read back incrementally; abort-early readers only pay for what they read.
    let mut reader = ColumnReader::<f64, _>::new(BufReader::new(File::open(&path)?))?;
    let mut count = 0usize;
    let mut sum = 0.0f64;
    let mut rowgroups = 0usize;
    // One buffer for every row-group: after the first, reading allocates
    // nothing.
    let mut values = Vec::new();
    while reader.next_rowgroup_into(&mut values)? {
        count += values.len();
        sum += values.iter().sum::<f64>();
        rowgroups += 1;
    }
    println!(
        "read back {count} values from {rowgroups} row-groups, mean = {:.4}",
        sum / count as f64
    );
    assert_eq!(count, total);

    // The pipelined mode: identical bytes, with compression overlapped onto
    // a worker pool while the caller thread keeps filling (threads resolve
    // from ALP_THREADS when not set here; the depth defaults to 2).
    let piped_path = std::env::temp_dir().join("alp_streaming_demo_piped.alps");
    let t0 = Instant::now();
    {
        let sink = BufWriter::new(File::create(&piped_path)?);
        let mut writer = PipelinedColumnWriter::<f64, _>::new(sink, PipelineConfig::default());
        for chunk in source.chunks(10_000) {
            writer.push(chunk)?;
        }
        let summary = writer.finish()?;
        println!(
            "pipelined: {} values in {} row-groups, {} bytes ({:.0} ms)",
            summary.values,
            summary.rowgroups,
            summary.total_bytes,
            t0.elapsed().as_secs_f64() * 1e3
        );
    }
    assert_eq!(
        std::fs::read(&path)?,
        std::fs::read(&piped_path)?,
        "pipelined stream must be byte-identical to the serial one"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&piped_path).ok();
    Ok(())
}
