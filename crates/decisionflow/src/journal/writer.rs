//! Journal capture: sinks that turn emitted events into frames.
//!
//! [`JournalWriter`] is the single-threaded recorder; the cloneable
//! [`SharedJournalWriter`] wraps it in a mutex for the multi-threaded
//! server path (events there are already serialized by the instance
//! lock, so contention is nil). Both stamp events with the journal's
//! monotonic logical clock in arrival order.
//!
//! A writer runs in one of two modes:
//!
//! * **buffered** ([`JournalWriter::new`]) — frames accumulate in
//!   memory and [`snapshot`](JournalWriter::snapshot) freezes them
//!   into a [`Journal`];
//! * **streaming** ([`JournalWriter::streaming`]) — each frame is
//!   serialized and flushed to an [`io::Write`] sink the moment it is
//!   recorded (the wire format of [`crate::journal::stream`]), so the
//!   writer holds O(1) frames regardless of instance length;
//!   [`finish`](JournalWriter::finish) seals the stream with its
//!   footer. [`stream::read_journal`](crate::journal::read_journal)
//!   reconstructs a `Journal` equal to what the buffered mode would
//!   have captured.

use std::io;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::strategy::Strategy;
use crate::journal::frame::{Clock, Event, Frame};
use crate::journal::{schema_fingerprint, stream, Journal, JournalSink, SCHEMA_VERSION};
use crate::schema::Schema;
use crate::snapshot::SourceValues;
use crate::value::Value;

/// Streaming-mode state: the sink plus the bookkeeping that makes the
/// wire format self-checking (lazy header, one footer, first IO error
/// latched and surfaced at [`JournalWriter::finish`]).
struct Streaming {
    sink: Box<dyn io::Write + Send>,
    header_written: bool,
    finished: bool,
    error: Option<io::Error>,
}

impl std::fmt::Debug for Streaming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Streaming")
            .field("header_written", &self.header_written)
            .field("finished", &self.finished)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// The journal header's source bindings for one instance of `schema`:
/// the bound values in **schema source order**, named. This is the
/// single definition of the header's `sources` field — live capture
/// ([`JournalWriter`]) and the durable store's journal reconstruction
/// ([`crate::store::fetch_journal`]) both go through it, which is what
/// makes a reconstructed tape byte-identical to the captured one.
pub fn bind_sources(schema: &Schema, sources: &SourceValues) -> Vec<(String, Value)> {
    let mut bound: Vec<(String, Value)> = Vec::with_capacity(schema.sources().len());
    for &s in schema.sources() {
        if let Some(v) = sources.get(s) {
            bound.push((schema.attr(s).name.clone(), v.clone()));
        }
    }
    bound
}

/// Accumulates frames for one instance execution.
#[derive(Debug)]
pub struct JournalWriter {
    strategy: String,
    disable_backward: bool,
    fingerprint: u64,
    sources: Vec<(String, Value)>,
    frames: Vec<Frame>,
    clock: Clock,
    streaming: Option<Streaming>,
}

impl JournalWriter {
    /// Start a buffered journal for one instance of `schema` under
    /// `strategy`.
    ///
    /// `sources` must be the exact bindings the instance runs with;
    /// they are embedded in the journal so replay needs nothing else.
    pub fn new(schema: &Schema, strategy: Strategy, sources: &SourceValues) -> JournalWriter {
        JournalWriter::new_with(schema, schema_fingerprint(schema), strategy, sources)
    }

    /// [`new`](Self::new) with the schema's fingerprint already in
    /// hand: the server computes it once per instance and reuses it
    /// here for the header.
    pub(crate) fn new_with(
        schema: &Schema,
        fingerprint: u64,
        strategy: Strategy,
        sources: &SourceValues,
    ) -> JournalWriter {
        JournalWriter {
            strategy: strategy.to_string(),
            disable_backward: false,
            fingerprint,
            sources: bind_sources(schema, sources),
            frames: Vec::new(),
            clock: 0,
            streaming: None,
        }
    }

    /// Start a **streaming** journal: frames are serialized to `sink`
    /// as they are recorded (JSON-lines wire format) instead of
    /// buffering in memory. The header line is written lazily with the
    /// first frame (so [`set_disable_backward`] can still run first)
    /// and [`finish`] seals the stream with its footer.
    ///
    /// IO errors never panic the engine hot path: the first error is
    /// latched, subsequent frames are dropped, and the error surfaces
    /// from [`finish`].
    ///
    /// [`set_disable_backward`]: JournalWriter::set_disable_backward
    /// [`finish`]: JournalWriter::finish
    pub fn streaming(
        schema: &Schema,
        strategy: Strategy,
        sources: &SourceValues,
        sink: Box<dyn io::Write + Send>,
    ) -> JournalWriter {
        JournalWriter::streaming_with(schema, schema_fingerprint(schema), strategy, sources, sink)
    }

    /// [`streaming`](Self::streaming) with the schema's fingerprint
    /// already in hand (see [`new_with`](Self::new_with)).
    pub(crate) fn streaming_with(
        schema: &Schema,
        fingerprint: u64,
        strategy: Strategy,
        sources: &SourceValues,
        sink: Box<dyn io::Write + Send>,
    ) -> JournalWriter {
        let mut w = JournalWriter::new_with(schema, fingerprint, strategy, sources);
        w.streaming = Some(Streaming {
            sink,
            header_written: false,
            finished: false,
            error: None,
        });
        w
    }

    /// Record that backward propagation was disabled (ablation runs).
    /// Must precede the first frame: the option is part of the stream
    /// header.
    pub fn set_disable_backward(&mut self, disabled: bool) {
        debug_assert_eq!(self.clock, 0, "options are fixed once recording starts");
        self.disable_backward = disabled;
    }

    /// True when this writer streams frames to a sink instead of
    /// buffering them.
    pub fn is_streaming(&self) -> bool {
        self.streaming.is_some()
    }

    /// Frames recorded so far (always empty in streaming mode — the
    /// frames are already on the sink).
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Next clock value (= number of frames recorded).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    fn ensure_header(s: &mut Streaming, ctx: (&str, bool, u64, &[(String, Value)])) {
        if s.header_written || s.error.is_some() {
            return;
        }
        let (strategy, disable_backward, fingerprint, sources) = ctx;
        if let Err(e) = stream::write_header(
            &mut s.sink,
            strategy,
            disable_backward,
            fingerprint,
            sources,
        ) {
            s.error = Some(e);
            return;
        }
        s.header_written = true;
    }

    /// Seal a streaming journal: write the header (if no frame forced
    /// it yet), the footer carrying the frame count and `time`, and
    /// flush the sink. Surfaces the first IO error encountered at any
    /// point during the capture. Idempotent; a no-op `Ok(())` on a
    /// buffered writer.
    pub fn finish(&mut self, time: u64) -> io::Result<()> {
        let Some(s) = &mut self.streaming else {
            return Ok(());
        };
        if s.finished {
            return Ok(());
        }
        s.finished = true;
        if let Some(e) = s.error.take() {
            return Err(e);
        }
        Self::ensure_header(
            s,
            (
                &self.strategy,
                self.disable_backward,
                self.fingerprint,
                &self.sources,
            ),
        );
        if let Some(e) = s.error.take() {
            return Err(e);
        }
        stream::write_footer(&mut s.sink, self.clock, time)?;
        s.sink.flush()
    }

    /// Freeze the frames recorded so far into a [`Journal`], stamping
    /// the driver-reported response time (`time` is in the driver's
    /// unit — processing units for the unit-time executor, 0 for the
    /// server). Non-consuming, because recording may legitimately
    /// continue past the snapshot point: on the server, speculative
    /// stragglers can land after the result is sent.
    ///
    /// Buffered mode only — a streaming writer no longer holds its
    /// frames; use [`try_snapshot`](JournalWriter::try_snapshot) when
    /// the mode is not statically known.
    pub fn snapshot(&self, time: u64) -> Journal {
        debug_assert!(
            !self.is_streaming(),
            "snapshot of a streaming writer (frames are on the sink)"
        );
        Journal {
            version: SCHEMA_VERSION,
            strategy: self.strategy.clone(),
            disable_backward: self.disable_backward,
            schema_fingerprint: self.fingerprint,
            sources: self.sources.clone(),
            time,
            frames: self.frames.clone(),
        }
    }

    /// [`snapshot`](JournalWriter::snapshot) that yields `None` in
    /// streaming mode instead of asserting.
    pub fn try_snapshot(&self, time: u64) -> Option<Journal> {
        if self.is_streaming() {
            None
        } else {
            Some(self.snapshot(time))
        }
    }
}

impl JournalSink for JournalWriter {
    fn record(&mut self, event: Event) {
        match &mut self.streaming {
            None => {
                let clock = self.clock;
                self.clock += 1;
                self.frames.push(Frame { clock, event });
            }
            Some(s) => {
                // Frames after the footer (server-side speculative
                // stragglers landing past completion) are dropped —
                // exactly what a buffered snapshot-at-completion
                // excludes too.
                if s.finished {
                    return;
                }
                Self::ensure_header(
                    s,
                    (
                        &self.strategy,
                        self.disable_backward,
                        self.fingerprint,
                        &self.sources,
                    ),
                );
                let clock = self.clock;
                self.clock += 1;
                let frame = Frame { clock, event };
                if s.error.is_none() {
                    if let Err(e) = stream::write_frame(&mut s.sink, &frame) {
                        s.error = Some(e);
                    }
                }
            }
        }
    }
}

/// Cloneable, thread-safe handle over a [`JournalWriter`].
///
/// The engine side holds one clone as its `JournalSink`; the driver
/// side keeps another to extract the journal when the instance
/// finishes.
#[derive(Clone, Debug)]
pub struct SharedJournalWriter(Arc<Mutex<JournalWriter>>);

impl SharedJournalWriter {
    /// Wrap a writer for shared use.
    pub fn new(writer: JournalWriter) -> SharedJournalWriter {
        SharedJournalWriter(Arc::new(Mutex::new(writer)))
    }

    /// Number of frames buffered so far (0 in streaming mode).
    pub fn len(&self) -> usize {
        self.0.lock().frames.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the wrapped writer streams to a sink.
    pub fn is_streaming(&self) -> bool {
        self.0.lock().is_streaming()
    }

    /// Clone of the frame at `index`, if buffered.
    pub fn frame(&self, index: usize) -> Option<Frame> {
        self.0.lock().frames.get(index).cloned()
    }

    /// Record an event directly, outside any runtime.
    pub fn record(&self, event: Event) {
        self.0.lock().record(event);
    }

    /// See [`JournalWriter::set_disable_backward`].
    pub fn set_disable_backward(&self, disabled: bool) {
        self.0.lock().set_disable_backward(disabled);
    }

    /// Snapshot the journal at this instant (frames cloned; buffered
    /// mode only).
    pub fn snapshot(&self, time: u64) -> Journal {
        self.0.lock().snapshot(time)
    }

    /// See [`JournalWriter::try_snapshot`].
    pub fn try_snapshot(&self, time: u64) -> Option<Journal> {
        self.0.lock().try_snapshot(time)
    }

    /// See [`JournalWriter::finish`].
    pub fn finish(&self, time: u64) -> io::Result<()> {
        self.0.lock().finish(time)
    }
}

impl JournalSink for SharedJournalWriter {
    fn record(&mut self, event: Event) {
        self.0.lock().record(event);
    }
}
