//! Closed-loop client actor: runs transactions from a [`TxSource`], measures
//! end-to-end latency and throughput, retries retryable aborts, and fails
//! over between middleware replicas on timeout — the behaviour §4.3.3 says
//! real drivers need and mostly lack.

use std::collections::BTreeMap;

use replimid_det::DetRng;
use replimid_simnet::{Actor, Ctx, NodeId};

use crate::backoff::{self, BackoffConfig};
use crate::metrics::Histogram;
use crate::msg::{ClientRequest, Msg, ReplyError, SessionId};
use crate::trace::{Stage, TraceId, TraceSink};

/// Produces the next transaction to run: a list of SQL statements. Include
/// BEGIN/COMMIT explicitly for multi-statement transactions; single
/// statements run in autocommit.
pub trait TxSource {
    fn next_tx(&mut self, rng: &mut DetRng) -> Vec<String>;
}

/// A fixed script, cycled forever (test helper).
pub struct ScriptSource {
    pub txs: Vec<Vec<String>>,
    cursor: usize,
}

impl ScriptSource {
    pub fn new(txs: Vec<Vec<String>>) -> Self {
        ScriptSource { txs, cursor: 0 }
    }
}

impl TxSource for ScriptSource {
    fn next_tx(&mut self, _rng: &mut DetRng) -> Vec<String> {
        let tx = self.txs[self.cursor % self.txs.len()].clone();
        self.cursor += 1;
        tx
    }
}

#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub session: SessionId,
    /// Middleware nodes, in failover preference order.
    pub middlewares: Vec<NodeId>,
    /// Closed-loop think time between transactions.
    pub think_time_us: u64,
    /// Per-statement timeout before failing over to the next middleware.
    pub request_timeout_us: u64,
    /// Retries for retryable aborts (certification/write conflicts).
    pub max_retries: u32,
    /// Stop issuing new transactions after this many completed (0 = run
    /// until the simulation ends).
    pub tx_limit: u64,
    /// Capped exponential backoff (with jitter) applied before abort
    /// retries and timeout failovers. Zero-delay retries synchronize every
    /// victim of a failure into a thundering herd against the survivors —
    /// the §4.3.4.2 load-induced-timeout spiral.
    pub backoff: BackoffConfig,
}

impl ClientConfig {
    pub fn new(session: SessionId, middlewares: Vec<NodeId>) -> Self {
        ClientConfig {
            session,
            middlewares,
            think_time_us: 1_000,
            request_timeout_us: 500_000,
            max_retries: 5,
            tx_limit: 0,
            backoff: BackoffConfig::client(),
        }
    }
}

/// Per-client measurements.
#[derive(Debug, Clone, Default)]
pub struct ClientMetrics {
    pub committed: u64,
    pub aborted: u64,
    pub failed: u64,
    pub timeouts: u64,
    pub failovers: u64,
    pub stmt_latency: Histogram,
    pub tx_latency: Histogram,
    /// Committed-transaction count per virtual second (throughput series).
    pub commits_per_sec: BTreeMap<u64, u64>,
    /// Errors per virtual second (degraded-mode visibility).
    pub errors_per_sec: BTreeMap<u64, u64>,
    /// The most recent error, for diagnostics.
    pub last_error: Option<String>,
    /// Client-side trace spans: one trace per transaction (spanning every
    /// retry attempt), tiled by ClientRtt / Retry / Backoff / Rollback.
    pub trace: TraceSink,
}

const TIMER_THINK: u64 = 1;
/// Backed-off retry of an aborted transaction.
const TIMER_RETRY: u64 = 2;
/// Backed-off failover resend after a request timeout.
const TIMER_RESEND: u64 = 3;
const TIMER_TIMEOUT_BASE: u64 = 100;

enum Phase {
    Idle,
    /// Executing `tx`, at statement `index`; statement sent at `sent_us`.
    Running { tx: Vec<String>, index: usize, started_us: u64, sent_us: u64, retries: u32 },
    /// Cleaning up a failed transaction before retrying or skipping.
    RollingBack { tx: Vec<String>, started_us: u64, retries: u32, retry: bool },
    /// Waiting out the retry backoff before re-attempting `tx`.
    BackingOff { tx: Vec<String>, retries: u32 },
    Done,
}

/// The client actor. The transaction source is boxed so the actor has a
/// concrete type (the simulator's inspection API downcasts to it).
pub struct Client {
    cfg: ClientConfig,
    source: Box<dyn TxSource>,
    phase: Phase,
    stmt_seq: u64,
    mw_index: usize,
    /// Consecutive timeouts on the current statement (backoff exponent).
    timeout_streak: u32,
    /// Statement the pending TIMER_RESEND belongs to (staleness guard).
    resend_seq: u64,
    /// Per-client transaction counter (low bits of the trace id).
    trace_ctr: u64,
    /// Trace id of the in-flight transaction (0 = none open).
    cur_trace: u64,
    /// Set by [`Client::stop`]: start no new transaction.
    stopped: bool,
    pub metrics: ClientMetrics,
}

impl Client {
    pub fn new(cfg: ClientConfig, source: impl TxSource + 'static) -> Self {
        Client {
            cfg,
            source: Box::new(source),
            phase: Phase::Idle,
            stmt_seq: 0,
            mw_index: 0,
            timeout_streak: 0,
            resend_seq: 0,
            trace_ctr: 0,
            cur_trace: 0,
            stopped: false,
            metrics: ClientMetrics::default(),
        }
    }

    /// Finish the transaction in flight (retries included) and start no
    /// other: the end of a measured window.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Attribute the window since this trace's previous event to `stage`.
    fn trace_span(&mut self, stage: Stage, now_us: u64) {
        if self.cur_trace != 0 {
            self.metrics.trace.span(TraceId(self.cur_trace), stage, now_us);
        }
    }

    /// Close the in-flight transaction's trace at `now_us`.
    fn trace_end(&mut self, now_us: u64) {
        if self.cur_trace != 0 {
            self.metrics.trace.end(TraceId(self.cur_trace), now_us);
            self.cur_trace = 0;
        }
    }

    fn middleware(&self) -> NodeId {
        self.cfg.middlewares[self.mw_index % self.cfg.middlewares.len()]
    }

    fn send_current(&mut self, ctx: &mut Ctx<'_, Msg>, sql: String) {
        let req = ClientRequest {
            session: self.cfg.session,
            stmt_seq: self.stmt_seq,
            trace: self.cur_trace,
            sql,
        };
        let mw = self.middleware();
        ctx.send(mw, Msg::Request(req));
        ctx.set_timer(self.cfg.request_timeout_us, TIMER_TIMEOUT_BASE + self.stmt_seq);
    }

    fn begin_tx(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.stopped
            || (self.cfg.tx_limit > 0 && self.metrics.committed + self.metrics.failed >= self.cfg.tx_limit)
        {
            self.phase = Phase::Done;
            return;
        }
        let tx = self.source.next_tx(ctx.rng());
        if tx.is_empty() {
            self.phase = Phase::Done;
            return;
        }
        // One trace per transaction, spanning every retry attempt; ids are
        // globally unique and monotone per client (session in the high
        // bits), which the sink's bounded eviction relies on.
        self.trace_ctr += 1;
        self.cur_trace = (self.cfg.session.0 << 24) | self.trace_ctr;
        self.metrics.trace.begin(TraceId(self.cur_trace), ctx.now().micros());
        self.start_attempt(ctx, tx, 0);
    }

    fn start_attempt(&mut self, ctx: &mut Ctx<'_, Msg>, tx: Vec<String>, retries: u32) {
        let now = ctx.now().micros();
        self.stmt_seq += 1;
        let sql = tx[0].clone();
        self.phase = Phase::Running { tx, index: 0, started_us: now, sent_us: now, retries };
        self.send_current(ctx, sql);
    }

    fn tx_committed(&mut self, ctx: &mut Ctx<'_, Msg>, started_us: u64) {
        let now = ctx.now().micros();
        self.metrics.committed += 1;
        self.metrics.tx_latency.record(now - started_us);
        *self.metrics.commits_per_sec.entry(now / 1_000_000).or_insert(0) += 1;
        self.trace_end(now);
        self.phase = Phase::Idle;
        ctx.set_timer(self.cfg.think_time_us.max(1), TIMER_THINK);
    }

    fn tx_failed(&mut self, ctx: &mut Ctx<'_, Msg>, tx: Vec<String>, started_us: u64, retries: u32, retryable: bool) {
        let now = ctx.now().micros();
        *self.metrics.errors_per_sec.entry(now / 1_000_000).or_insert(0) += 1;
        if retryable && retries < self.cfg.max_retries {
            self.metrics.aborted += 1;
            // Roll back whatever transaction context remains, then retry.
            self.stmt_seq += 1;
            self.phase = Phase::RollingBack { tx, started_us, retries, retry: true };
            self.send_current(ctx, "ROLLBACK".into());
        } else {
            self.metrics.failed += 1;
            self.stmt_seq += 1;
            self.phase = Phase::RollingBack { tx, started_us, retries, retry: false };
            self.send_current(ctx, "ROLLBACK".into());
        }
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_, Msg>, stmt_seq: u64, result: Result<(), ReplyError>) {
        if stmt_seq != self.stmt_seq {
            return; // stale (timed-out request answered late)
        }
        self.timeout_streak = 0;
        let now = ctx.now().micros();
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Running { tx, index, started_us, sent_us, retries } => {
                self.metrics.stmt_latency.record(now - sent_us);
                self.trace_span(Stage::ClientRtt, now);
                match result {
                    Ok(()) => {
                        if index + 1 < tx.len() {
                            self.stmt_seq += 1;
                            let sql = tx[index + 1].clone();
                            self.phase = Phase::Running {
                                tx,
                                index: index + 1,
                                started_us,
                                sent_us: now,
                                retries,
                            };
                            self.send_current(ctx, sql);
                        } else {
                            self.tx_committed(ctx, started_us);
                        }
                    }
                    Err(e) => {
                        let retryable = e.is_retryable();
                        self.metrics.last_error = Some(format!("{e:?}"));
                        self.tx_failed(ctx, tx, started_us, retries, retryable);
                    }
                }
            }
            Phase::RollingBack { tx, started_us, retries, retry } => {
                // Rollback acknowledged (or failed — either way, move on).
                self.trace_span(Stage::Rollback, now);
                if retry {
                    // Back off before the retry: every victim of the same
                    // conflict/failure retrying at once re-creates it.
                    let delay = backoff::delay_us(self.cfg.backoff, retries, ctx.rng());
                    self.phase = Phase::BackingOff { tx, retries };
                    ctx.set_timer(delay, TIMER_RETRY);
                } else {
                    let _ = started_us;
                    self.trace_end(now);
                    self.phase = Phase::Idle;
                    ctx.set_timer(self.cfg.think_time_us.max(1), TIMER_THINK);
                }
            }
            other => self.phase = other,
        }
    }

    fn on_timeout(&mut self, ctx: &mut Ctx<'_, Msg>, stmt_seq: u64) {
        if stmt_seq != self.stmt_seq {
            return; // reply already arrived
        }
        // Only meaningful while a request is outstanding.
        let outstanding = matches!(self.phase, Phase::Running { .. } | Phase::RollingBack { .. });
        if !outstanding {
            return;
        }
        self.metrics.timeouts += 1;
        self.metrics.failovers += 1;
        // The wait on the (presumed dead) request counts as retry time.
        self.trace_span(Stage::Retry, ctx.now().micros());
        *self
            .metrics
            .errors_per_sec
            .entry(ctx.now().micros() / 1_000_000)
            .or_insert(0) += 1;
        // Fail over to the next middleware and retry the same statement —
        // the dedup key (session, stmt_seq) makes this safe. The resend is
        // delayed by a backed-off, jittered amount: every client that timed
        // out on the same dead node would otherwise arrive at the survivor
        // in lockstep, exactly when it is absorbing the failover load.
        self.mw_index += 1;
        let attempt = self.timeout_streak;
        self.timeout_streak += 1;
        self.resend_seq = self.stmt_seq;
        let delay = backoff::delay_us(self.cfg.backoff, attempt, ctx.rng());
        ctx.set_timer(delay, TIMER_RESEND);
    }

    fn fire_resend(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Stale if a reply arrived during the backoff.
        if self.resend_seq != self.stmt_seq {
            return;
        }
        let sql = match &self.phase {
            Phase::Running { tx, index, .. } => tx[*index].clone(),
            Phase::RollingBack { .. } => "ROLLBACK".into(),
            _ => return,
        };
        // The backed-off wait between timeout and resend is retry time too.
        self.trace_span(Stage::Retry, ctx.now().micros());
        if let Phase::Running { sent_us, .. } = &mut self.phase {
            *sent_us = ctx.now().micros();
        }
        self.send_current(ctx, sql);
    }
}

impl Actor<Msg> for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Stagger client start-up a little to avoid lockstep.
        let jitter = (self.cfg.session.0 % 97) * 100;
        ctx.set_timer(1_000 + jitter, TIMER_THINK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::Reply(reply) = msg {
            if reply.session != self.cfg.session {
                return;
            }
            let result = reply.result.map(|_| ());
            self.on_reply(ctx, reply.stmt_seq, result);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        match tag {
            TIMER_THINK => {
                if matches!(self.phase, Phase::Idle) {
                    self.begin_tx(ctx);
                }
            }
            TIMER_RETRY => {
                if let Phase::BackingOff { .. } = self.phase {
                    let Phase::BackingOff { tx, retries } =
                        std::mem::replace(&mut self.phase, Phase::Idle)
                    else {
                        unreachable!()
                    };
                    self.trace_span(Stage::Backoff, ctx.now().micros());
                    self.start_attempt(ctx, tx, retries + 1);
                }
            }
            TIMER_RESEND => self.fire_resend(ctx),
            t if t >= TIMER_TIMEOUT_BASE => self.on_timeout(ctx, t - TIMER_TIMEOUT_BASE),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_source_cycles() {
        let mut s = ScriptSource::new(vec![vec!["SELECT 1".into()], vec!["SELECT 2".into()]]);
        let mut rng = DetRng::seed_from_u64(0);
        assert_eq!(s.next_tx(&mut rng)[0], "SELECT 1");
        assert_eq!(s.next_tx(&mut rng)[0], "SELECT 2");
        assert_eq!(s.next_tx(&mut rng)[0], "SELECT 1");
    }
}
