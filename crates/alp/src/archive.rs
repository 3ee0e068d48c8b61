//! One way to open an ALP file: sniff → strict read → salvage → verdict.
//!
//! The only code that knows "magic → layout, byte 4 → float width"
//! ([`sniff`]), and the only place the open policy is written down ([`open`];
//! DESIGN.md §7 has the table): read strictly; when that fails, run the
//! layout's salvage reader; call the result the file's data only when the
//! repair is *complete* by the counts the file itself promised. It adds no
//! parser, checksum or check of its own — the readers are [`crate::format`]'s
//! and [`crate::stream`]'s — and one [`Verdict`] says what a caller may do
//! with what came back. Whatever the layout and whichever reader ran, what
//! survived is one form: its verified row-group bodies in a
//! [`BodyColumn`], decoded only when the caller asks for values.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::error::Error;

use crate::format::{self, BodyColumn, FormatError};
use crate::stream::{self, ColumnReader, StreamError};
use crate::traits::AlpFloat;

/// The two file layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `"ALP2"` / legacy `"ALP1"`: header with counts, then every row-group.
    Column,
    /// `"ALPT"` / legacy `"ALPS"`: frames until a terminator, commit footer.
    Stream,
}

/// What [`sniff`] read from a file's first five bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kind {
    /// The file's four magic bytes, as text.
    pub magic: &'static str,
    /// Which reader the magic selects.
    pub layout: Layout,
    /// A pre-checksum layout (`"ALP1"`, `"ALPS"`): readable, never written.
    pub legacy: bool,
    /// Float width in bits: 64 or 32.
    pub bits: u8,
}

/// Identifies an ALP file: the magic picks the layout, byte 4 the float
/// width. [`FormatError::BadMagic`] for anything else, `Truncated` under five
/// bytes, `Corrupt("float width")` for a width no reader has.
pub fn sniff(bytes: &[u8]) -> Result<Kind, FormatError> {
    let (magic, &bits) = bytes
        .split_first_chunk::<4>()
        .and_then(|(magic, rest)| Some((magic, rest.first()?)))
        .ok_or(FormatError::Truncated)?;
    let (magic, layout, legacy) = match magic {
        format::MAGIC => ("ALP2", Layout::Column, false),
        format::MAGIC_V1 => ("ALP1", Layout::Column, true),
        stream::STREAM_MAGIC => ("ALPT", Layout::Stream, false),
        stream::STREAM_MAGIC_V1 => ("ALPS", Layout::Stream, true),
        _ => return Err(FormatError::BadMagic),
    };
    if bits != 64 && bits != 32 {
        return Err(FormatError::Corrupt("float width"));
    }
    Ok(Kind { magic, layout, legacy, bits })
}

/// What an [`open`] concluded, by the first rule that holds; the discriminants
/// are the `alp verify` / `alp scrub` exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verdict {
    /// The strict read succeeded.
    Clean = 0,
    /// Damaged, and fully repaired: no row-group lost, the file committed,
    /// the surviving value count the promised one.
    Repaired = 2,
    /// Damaged; at least one row-group survives.
    Salvageable = 3,
    /// No row-group survives. (A damaged header is [`open`]'s `Err`; callers
    /// that triage report it as this too.)
    Unreadable = 4,
}

impl Verdict {
    /// Whether what survived is the whole column (`Clean` or `Repaired`).
    pub fn is_complete(self) -> bool {
        matches!(self, Verdict::Clean | Verdict::Repaired)
    }
}

/// The counts a file vouches for: a column's header, or a stream's verified
/// commit footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promised {
    /// Values the writer stored.
    pub values: usize,
    /// Row-groups the writer stored (for a damaged column header, clamped to
    /// what the file could physically hold).
    pub rowgroups: usize,
}

/// The result of [`open`]: what survived and what the file says about it.
#[derive(Debug)]
pub struct Opened<F: AlpFloat> {
    /// What [`sniff`] saw.
    pub kind: Kind,
    /// The surviving row-groups' bodies, in file order.
    pub survivors: BodyColumn<F>,
    /// File-order indices of row-groups rebuilt from parity (present in
    /// `survivors`).
    pub repaired: Vec<usize>,
    /// File-order indices of row-groups lost to damage.
    pub lost: Vec<usize>,
    /// The counts the file promised; `None` for a stream without a verified
    /// commit footer (torn, or legacy).
    pub promised: Option<Promised>,
    /// Whether the writer finished the file: a stream's commit record was
    /// found and matches the walk; always `true` for a column, which is
    /// written whole.
    pub committed: bool,
    /// Why the strict read failed, when it did.
    pub strict_error: Option<Box<dyn Error + Send + Sync>>,
    /// What to make of it all.
    pub verdict: Verdict,
}

impl<F: AlpFloat> Opened<F> {
    /// Row-groups the file held: the promise, or what the walk accounted for.
    pub fn total_rowgroups(&self) -> usize {
        let walked = self.survivors.rowgroup_count() + self.lost.len();
        self.promised.map_or(walked, |p| p.rowgroups)
    }

    /// The column's values, decoded on `threads` workers — only when they
    /// are all there ([`Verdict::is_complete`]); otherwise the strict read's
    /// error.
    pub fn complete_values(self, threads: usize) -> Result<Vec<F>, Box<dyn Error + Send + Sync>> {
        match self.strict_error {
            Some(strict_error) if !self.verdict.is_complete() => Err(strict_error),
            _ => Ok(self.survivors.decompress(threads)),
        }
    }
}

/// Opens an ALP file of float type `F` held in memory: the strict reader
/// first, the layout's salvage reader when that fails, one [`Verdict`] over
/// the outcome. `Err` means the header itself is unusable (bad magic, wrong or
/// unknown width, truncated): nothing can be said about the contents.
/// `threads` bounds the salvage walk of either layout.
pub fn open<F: AlpFloat>(bytes: &[u8], threads: usize) -> Result<Opened<F>, FormatError> {
    let kind = sniff(bytes)?;
    let mut strict_error: Option<Box<dyn Error + Send + Sync>> = None;
    let (survivors, repaired, lost, promised, committed) = match kind.layout {
        Layout::Column => match BodyColumn::from_bytes(bytes) {
            Ok(column) => {
                let promised =
                    Promised { values: column.len(), rowgroups: column.rowgroup_count() };
                (column, Vec::new(), Vec::new(), Some(promised), true)
            }
            Err(e) => {
                strict_error = Some(e.into());
                let read = format::from_bytes_salvage_parallel(bytes, threads)?;
                let promised =
                    Promised { values: read.expected_len, rowgroups: read.total_rowgroups };
                (read.column, read.repaired_rowgroups, read.lost_rowgroups, Some(promised), true)
            }
        },
        Layout::Stream => {
            let drain = |salvaging: bool| -> Result<_, StreamError> {
                let mut reader = ColumnReader::<F, _>::new(bytes)?;
                let column =
                    if salvaging { reader.salvage_rest(threads)? } else { reader.strict_rest()? };
                Ok((column, reader))
            };
            let read = drain(false).or_else(|e| {
                strict_error = Some(e.into());
                drain(true)
            });
            let (column, reader) = read.map_err(|e| match e {
                StreamError::Format(e) => e,
                // In memory the only I/O "error" is the bytes running out.
                StreamError::Io(_) => FormatError::Truncated,
            })?;
            let promised = reader.footer().map(|footer| Promised {
                values: usize::try_from(footer.values).unwrap_or(usize::MAX),
                rowgroups: footer.rowgroups as usize,
            });
            let (repaired, lost) = (reader.repaired_rowgroups(), reader.lost_rowgroups());
            (column, repaired.to_vec(), lost.to_vec(), promised, reader.is_committed())
        }
    };
    // The verdict rule, written once.
    let as_promised = promised.is_none_or(|p| p.values == survivors.len());
    let verdict = match &strict_error {
        None => Verdict::Clean,
        Some(_) if lost.is_empty() && committed && as_promised => Verdict::Repaired,
        Some(_) if survivors.rowgroup_count() > 0 => Verdict::Salvageable,
        Some(_) => Verdict::Unreadable,
    };
    Ok(Opened { kind, survivors, repaired, lost, promised, committed, strict_error, verdict })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{RowGroupView, VectorView};
    use crate::stream::ColumnWriter;
    use crate::{Compressor, ParityConfig, Scheme};

    /// Three row-groups: ALP, ALP_rd, and a short ALP tail.
    fn data() -> Vec<f64> {
        let real = |i: usize| ((i as f64) * 0.271).sin() * 2e-5;
        let rowgroup = |i: usize| i / (100 * 1024);
        (0..250_000)
            .map(|i| if rowgroup(i) == 1 { real(i) } else { (i % 999) as f64 / 8.0 })
            .collect()
    }

    /// A row-group as read: its length, scheme, vector count, and the bits
    /// of its values, vector by vector.
    type Described = (usize, Scheme, usize, Vec<u64>);

    fn described(len: usize, scheme: Scheme, vectors: &[VectorView<'_>]) -> Described {
        let (mut buf, mut bits) = ([0.0f64; fastlanes::VECTOR_SIZE], Vec::new());
        for vector in vectors {
            let n = vector.decode(&mut buf);
            bits.extend(buf[..n].iter().map(|x| x.to_bits()));
        }
        (len, scheme, vectors.len(), bits)
    }

    /// Every row-group and every vector of `column`, as its access paths
    /// hand them out and as a fresh parse of its bodies reads them; the two
    /// must agree, and the result is what every way in must yield.
    fn column_as_parsed(column: &BodyColumn<f64>) -> Vec<Described> {
        let (mut rows, mut vector) = (Vec::new(), 0);
        for (i, body) in column.bodies().enumerate() {
            let parsed = RowGroupView::<f64>::parse_exact(body).expect("a body taken in");
            let want: Vec<_> = parsed.vectors().collect();
            let want = described(parsed.len(), parsed.scheme(), &want);
            let view = column.rowgroup(i).expect("in range");
            let got: Vec<_> = view.vectors().collect();
            assert_eq!(described(view.len(), view.scheme(), &got), want, "rowgroup({i})");
            let by_vector: Vec<_> = (vector..vector + parsed.vector_count())
                .map(|v| column.vector(v).expect("in range"))
                .collect();
            assert_eq!(described(view.len(), view.scheme(), &by_vector), want, "vectors of {i}");
            vector += parsed.vector_count();
            rows.push(want);
        }
        assert!(column.rowgroup(rows.len()).is_none() && column.vector(vector).is_none());
        rows
    }

    #[test]
    fn sniff_names_every_layout_and_refuses_the_rest() {
        let column = format::to_bytes(&Compressor::new().compress(&[1.5f32, 2.5]));
        let kind = sniff(&column).unwrap();
        assert_eq!(
            (kind.magic, kind.layout, kind.legacy, kind.bits),
            ("ALP2", Layout::Column, false, 32)
        );
        assert_eq!(sniff(b"ALPS\x40").unwrap().layout, Layout::Stream);
        assert!(sniff(b"ALPS\x40").unwrap().legacy);
        assert_eq!(sniff(b"ALP"), Err(FormatError::Truncated));
        assert_eq!(sniff(b"ALPX\x40"), Err(FormatError::BadMagic));
        assert_eq!(sniff(b"ALPT\x10"), Err(FormatError::Corrupt("float width")));
        assert!(matches!(open::<f64>(&column, 1), Err(FormatError::WidthMismatch { .. })));
    }

    /// The verdict table on both layouts, from the same four kinds of damage.
    #[test]
    fn verdicts_agree_across_layouts() {
        let data = data();
        let column = |parity: Option<usize>| {
            let compressed = Compressor::new().compress(&data);
            match parity {
                Some(group_size) => {
                    format::to_bytes_with_parity(&compressed, ParityConfig { group_size }).unwrap()
                }
                None => format::to_bytes(&compressed),
            }
        };
        let stream = |parity: Option<usize>| {
            let mut sink = Vec::new();
            let mut writer = match parity {
                Some(group_size) => {
                    ColumnWriter::<f64, _>::with_parity(&mut sink, ParityConfig { group_size })
                        .unwrap()
                }
                None => ColumnWriter::<f64, _>::new(&mut sink),
            };
            writer.push(&data).unwrap();
            writer.finish().unwrap();
            sink
        };
        // Every way in yields one column: the bodies a writer encoded, a
        // clean open and a repaired salvage of either layout.
        let compressor = Compressor::new();
        let mut scratch = crate::rowgroup::EncodeScratch::default();
        let mut stats = crate::sampler::SamplerStats::default();
        let bodies = data.chunks(100 * 1024).map(|values| {
            let mut body = Vec::new();
            compressor.encode_rowgroup_body(values, &mut body, &mut scratch, &mut stats);
            body
        });
        let written = column_as_parsed(&BodyColumn::from_bodies(bodies.collect()).unwrap());
        let shape: Vec<_> = written.iter().map(|row| (row.0, row.1)).collect();
        assert_eq!(
            shape,
            [(102_400, Scheme::Alp), (102_400, Scheme::AlpRd), (45_200, Scheme::Alp)]
        );
        for (layout, write) in [("column", &column as &dyn Fn(_) -> Vec<u8>), ("stream", &stream)] {
            let verdict = |bytes: &[u8]| open::<f64>(bytes, 2).unwrap().verdict;
            let clean = write(None);
            assert_eq!(verdict(&clean), Verdict::Clean, "{layout}");
            let opened = open::<f64>(&clean, 2).unwrap();
            assert_eq!(opened.promised, Some(Promised { values: data.len(), rowgroups: 3 }));
            assert_eq!(column_as_parsed(&opened.survivors), written, "{layout}: clean open");
            assert_eq!(opened.complete_values(2).unwrap(), data, "{layout}");

            let mut repairable = write(Some(2));
            repairable[600] ^= 0xFF;
            let opened = open::<f64>(&repairable, 2).unwrap();
            assert_eq!((opened.verdict, &opened.repaired[..]), (Verdict::Repaired, &[0][..]));
            assert!(opened.strict_error.is_some() && opened.committed, "{layout}");
            assert_eq!(column_as_parsed(&opened.survivors), written, "{layout}: salvaged");
            assert_eq!(opened.complete_values(2).unwrap(), data, "{layout}");

            // Damage confined to a parity frame costs no data: a column's strict
            // reader never looks there, a stream's walks through it.
            let mut unprotected = write(Some(2));
            let parity_frame = unprotected.windows(4).position(|w| w == b"ALPP").unwrap();
            unprotected[parity_frame + 100] ^= 0xFF;
            let opened = open::<f64>(&unprotected, 2).unwrap();
            let expected = if layout == "column" { Verdict::Clean } else { Verdict::Repaired };
            assert_eq!((opened.verdict, opened.repaired.len()), (expected, 0), "{layout}");
            assert_eq!(opened.complete_values(2).unwrap(), data, "{layout}");

            let torn = &clean[..clean.len() * 2 / 3];
            let opened = open::<f64>(torn, 2).unwrap();
            assert_eq!(opened.verdict, Verdict::Salvageable, "{layout}");
            assert_eq!(opened.committed, layout == "column", "{layout}");
            // A torn stream cannot say how many row-groups it was meant to hold.
            let total = if layout == "column" { 3 } else { 2 };
            assert!(!opened.lost.is_empty() && opened.total_rowgroups() == total, "{layout}");
            assert!(opened.complete_values(2).is_err(), "{layout}: must not drop rows silently");

            // Header intact, every frame hit: nothing survives.
            let mut wrecked = clean.clone();
            wrecked.iter_mut().skip(32).step_by(512).for_each(|b| *b ^= 0xFF);
            assert_eq!(verdict(&wrecked), Verdict::Unreadable, "{layout}");
        }
    }
}
