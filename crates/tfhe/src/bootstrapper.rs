//! The unified batch-bootstrap API surface: [`BatchRequest`] and the
//! [`Bootstrapper`] trait.
//!
//! Four bootstrap backends share this one operator interface — the
//! sequential [`ServerKey`] loop, the persistent
//! [`BootstrapEngine`](crate::BootstrapEngine) pool, the
//! dynamic-batching [`Dispatcher`](crate::dispatch::Dispatcher) over an
//! ordered list of backends, and the per-tenant
//! [`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper). Callers
//! describe *what* to bootstrap in a [`BatchRequest`] (ciphertexts, how
//! LUTs map onto them, an optional deadline and tenant) and any
//! [`Bootstrapper`] decides *how*, the way single-kernel TFHE designs
//! define one configurable entry point.
//!
//! Requests come in three shapes: a **shared** LUT for every ciphertext,
//! **per-item** selectors (`lut_of[i]` names ciphertext `i`'s LUT), and a
//! **fanout** map (`fanout[i]` names *several* LUTs for ciphertext `i`,
//! all evaluated from one blind rotation via multi-value bootstrapping —
//! see [`ServerKey::try_programmable_bootstrap_many_with`]). Fanout outputs are
//! flattened in input order: first every output of ciphertext 0, then
//! every output of ciphertext 1, and so on.
//!
//! # Quickstart
//!
//! ```
//! use morphling_tfhe::{BatchRequest, Bootstrapper, ClientKey, Lut, ParamSet, ServerKey};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let params = ParamSet::Test.params();
//! let ck = ClientKey::generate(params.clone(), &mut rng);
//! let sk = ServerKey::new(&ck, &mut rng);
//! let lut = Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4);
//! let cts: Vec<_> = (0..3).map(|m| ck.encrypt(m, &mut rng)).collect();
//!
//! let req = BatchRequest::shared(cts, lut);
//! let out = sk.try_bootstrap_batch(&req).unwrap();
//! assert_eq!(ck.decrypt(&out[0]), 1);
//! ```

use std::sync::Arc;
use std::time::Instant;

use crate::engine::EngineHealth;
use crate::error::TfheError;
use crate::keystore::TenantId;
use crate::lut::Lut;
use crate::lwe::LweCiphertext;
use crate::server::{ChunkItem, ServerKey};

/// A self-describing batch-bootstrap request: the one argument every
/// [`Bootstrapper`] takes.
///
/// Built via [`BatchRequest::builder`] (the same consuming-builder idiom
/// as [`BootstrapEngineBuilder`](crate::BootstrapEngineBuilder)), or the
/// [`shared`](Self::shared) / [`per_item`](Self::per_item) shortcuts.
/// Construction validates the LUT/selector shape once, so every backend
/// can trust `lut_for` to be in range.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    cts: Vec<LweCiphertext>,
    luts: Vec<Lut>,
    lut_of: Option<Vec<usize>>,
    fanout: Option<Vec<Vec<usize>>>,
    deadline: Option<Instant>,
    tenant: Option<TenantId>,
}

impl BatchRequest {
    /// Start building a request.
    pub fn builder() -> BatchRequestBuilder {
        BatchRequestBuilder::new()
    }

    /// Every ciphertext through the same `lut` — the common case, and
    /// infallible (a single LUT needs no selectors).
    pub fn shared(cts: Vec<LweCiphertext>, lut: Lut) -> Self {
        Self {
            cts,
            luts: vec![lut],
            lut_of: None,
            fanout: None,
            deadline: None,
            tenant: None,
        }
    }

    /// Every ciphertext through **all** of `luts` — the multi-value shape
    /// (`k` outputs per input for one blind rotation each).
    ///
    /// # Errors
    ///
    /// [`TfheError::NoLutProvided`] if `luts` is empty while ciphertexts
    /// are present.
    pub fn many(cts: Vec<LweCiphertext>, luts: Vec<Lut>) -> Result<Self, TfheError> {
        let all: Vec<usize> = (0..luts.len()).collect();
        let map = vec![all; cts.len()];
        Self::builder()
            .ciphertexts(cts)
            .luts(luts)
            .fanout(map)
            .build()
    }

    /// Ciphertext `i` through every LUT in `fanout[i]` — the general
    /// multi-value shape (e.g. a tree node comparing one feature against
    /// several thresholds at once).
    ///
    /// # Errors
    ///
    /// [`TfheError::FanoutLengthMismatch`], [`TfheError::EmptyFanout`],
    /// [`TfheError::LutIndexOutOfRange`], or [`TfheError::NoLutProvided`]
    /// on a malformed map.
    pub fn fanned_out(
        cts: Vec<LweCiphertext>,
        luts: Vec<Lut>,
        fanout: Vec<Vec<usize>>,
    ) -> Result<Self, TfheError> {
        Self::builder()
            .ciphertexts(cts)
            .luts(luts)
            .fanout(fanout)
            .build()
    }

    /// Ciphertext `i` through `luts[lut_of[i]]` — the shape mixed
    /// workloads produce (e.g. a tree evaluator comparing against several
    /// thresholds in one wave).
    ///
    /// # Errors
    ///
    /// [`TfheError::LutSelectorLengthMismatch`] if
    /// `lut_of.len() != cts.len()`, [`TfheError::LutIndexOutOfRange`] if a
    /// selector references a missing LUT, [`TfheError::NoLutProvided`] if
    /// `luts` is empty while ciphertexts are present.
    pub fn per_item(
        cts: Vec<LweCiphertext>,
        luts: Vec<Lut>,
        lut_of: Vec<usize>,
    ) -> Result<Self, TfheError> {
        Self::builder()
            .ciphertexts(cts)
            .luts(luts)
            .selectors(lut_of)
            .build()
    }

    /// The ciphertexts to bootstrap, in order.
    pub fn ciphertexts(&self) -> &[LweCiphertext] {
        &self.cts
    }

    /// The LUT table (one entry in the shared-LUT case).
    pub fn luts(&self) -> &[Lut] {
        &self.luts
    }

    /// Per-item LUT selectors, if this is a multi-LUT request.
    pub fn selectors(&self) -> Option<&[usize]> {
        self.lut_of.as_deref()
    }

    /// The fanout map, if this is a multi-value request: `fanout()[i]`
    /// lists the LUT indices ciphertext `i` is evaluated through.
    pub fn fanout(&self) -> Option<&[Vec<usize>]> {
        self.fanout.as_deref()
    }

    /// Number of output ciphertexts input `i` produces (1 unless this is
    /// a fanout request).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn output_count(&self, i: usize) -> usize {
        match &self.fanout {
            Some(map) => map[i].len(),
            None => {
                debug_assert!(i < self.cts.len());
                1
            }
        }
    }

    /// Total number of output ciphertexts the request produces
    /// (`Σ output_count(i)`; equals [`len`](Self::len) unless this is a
    /// fanout request).
    pub fn output_len(&self) -> usize {
        match &self.fanout {
            Some(map) => map.iter().map(Vec::len).sum(),
            None => self.cts.len(),
        }
    }

    /// The LUTs ciphertext `i` goes through, in output order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub(crate) fn luts_for(&self, i: usize) -> Vec<&Lut> {
        match &self.fanout {
            Some(map) => map[i].iter().map(|&j| &self.luts[j]).collect(),
            None => vec![self.lut_for(i)],
        }
    }

    /// The ciphertexts of `range`, each with [`luts_for`](Self::luts_for)
    /// it: what [`ServerKey::try_bootstrap_chunk`] takes.
    pub(crate) fn items(&self, range: std::ops::Range<usize>) -> Vec<ChunkItem<'_>> {
        range.map(|i| (&self.cts[i], self.luts_for(i))).collect()
    }

    /// The LUT ciphertext `i` goes through.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()` — construction already guaranteed
    /// every in-range selector resolves.
    pub(crate) fn lut_for(&self, i: usize) -> &Lut {
        match &self.lut_of {
            Some(sel) => &self.luts[sel[i]],
            None => &self.luts[0],
        }
    }

    /// Latest acceptable *start* time. Only deadline-aware backends (the
    /// dispatcher) act on it; immediate backends start right away and
    /// ignore it.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The tenant whose key material should serve this request, if any.
    /// Tenant-aware backends
    /// ([`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper)) resolve the
    /// key through their [`KeyStore`](crate::KeyStore); single-key
    /// backends ignore it.
    pub fn tenant(&self) -> Option<TenantId> {
        self.tenant
    }

    /// Attach a tenant to an already-built request (key-affinity routing).
    pub(crate) fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Number of ciphertexts in the batch.
    pub fn len(&self) -> usize {
        self.cts.len()
    }

    /// Whether the batch is empty (every backend maps it to `Ok(vec![])`).
    pub fn is_empty(&self) -> bool {
        self.cts.is_empty()
    }
}

/// Builder for [`BatchRequest`], mirroring
/// [`BootstrapEngineBuilder`](crate::BootstrapEngineBuilder)'s consuming
/// style.
#[derive(Clone, Debug, Default)]
pub struct BatchRequestBuilder {
    cts: Vec<LweCiphertext>,
    luts: Vec<Lut>,
    lut_of: Option<Vec<usize>>,
    fanout: Option<Vec<Vec<usize>>>,
    deadline: Option<Instant>,
    tenant: Option<TenantId>,
}

impl BatchRequestBuilder {
    /// An empty request: no ciphertexts, no LUTs.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ciphertexts to bootstrap, in order.
    pub fn ciphertexts(mut self, cts: Vec<LweCiphertext>) -> Self {
        self.cts = cts;
        self
    }

    /// A single LUT shared by every ciphertext (replaces any previously
    /// set LUT table).
    pub fn lut(mut self, lut: Lut) -> Self {
        self.luts = vec![lut];
        self
    }

    /// A LUT table for per-item selection (pair with
    /// [`selectors`](Self::selectors)).
    pub fn luts(mut self, luts: Vec<Lut>) -> Self {
        self.luts = luts;
        self
    }

    /// Per-item LUT selectors: ciphertext `i` goes through
    /// `luts[lut_of[i]]`.
    pub fn selectors(mut self, lut_of: Vec<usize>) -> Self {
        self.lut_of = Some(lut_of);
        self
    }

    /// A fanout map: ciphertext `i` goes through **every** LUT in
    /// `fanout[i]` (multi-value bootstrapping — one blind rotation per
    /// input, one output per listed LUT). Mutually exclusive with
    /// [`selectors`](Self::selectors).
    pub fn fanout(mut self, fanout: Vec<Vec<usize>>) -> Self {
        self.fanout = Some(fanout);
        self
    }

    /// Latest acceptable start time (see [`BatchRequest::deadline`]).
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The tenant whose key serves this request (see
    /// [`BatchRequest::tenant`]).
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Validate the LUT/selector shape and produce the request.
    ///
    /// # Errors
    ///
    /// [`TfheError::NoLutProvided`] if there are ciphertexts but no LUT;
    /// [`TfheError::FanoutSelectorConflict`] if both selectors and a
    /// fanout map were supplied; [`TfheError::FanoutLengthMismatch`] /
    /// [`TfheError::EmptyFanout`] on a malformed fanout map;
    /// [`TfheError::LutSelectorLengthMismatch`] if selectors are present
    /// with the wrong length, or absent while more than one LUT was
    /// supplied (ambiguous); [`TfheError::LutIndexOutOfRange`] if a
    /// selector or fanout entry references a missing LUT.
    pub fn build(self) -> Result<BatchRequest, TfheError> {
        if !self.cts.is_empty() && self.luts.is_empty() {
            return Err(TfheError::NoLutProvided);
        }
        if self.lut_of.is_some() && self.fanout.is_some() {
            return Err(TfheError::FanoutSelectorConflict);
        }
        if let Some(map) = &self.fanout {
            if map.len() != self.cts.len() {
                return Err(TfheError::FanoutLengthMismatch {
                    expected: self.cts.len(),
                    got: map.len(),
                });
            }
            for (input, list) in map.iter().enumerate() {
                if list.is_empty() {
                    return Err(TfheError::EmptyFanout { input });
                }
                for &s in list {
                    if s >= self.luts.len() {
                        return Err(TfheError::LutIndexOutOfRange {
                            index: s,
                            luts: self.luts.len(),
                        });
                    }
                }
            }
        } else {
            match &self.lut_of {
                Some(sel) => {
                    if sel.len() != self.cts.len() {
                        return Err(TfheError::LutSelectorLengthMismatch {
                            expected: self.cts.len(),
                            got: sel.len(),
                        });
                    }
                    for &s in sel {
                        if s >= self.luts.len() {
                            return Err(TfheError::LutIndexOutOfRange {
                                index: s,
                                luts: self.luts.len(),
                            });
                        }
                    }
                }
                None => {
                    if self.luts.len() > 1 {
                        // More than one LUT with no selectors is ambiguous —
                        // surfaced as a zero-length selector mismatch.
                        return Err(TfheError::LutSelectorLengthMismatch {
                            expected: self.cts.len(),
                            got: 0,
                        });
                    }
                }
            }
        }
        Ok(BatchRequest {
            cts: self.cts,
            luts: self.luts,
            lut_of: self.lut_of,
            fanout: self.fanout,
            deadline: self.deadline,
            tenant: self.tenant,
        })
    }
}

/// The canonical batch-bootstrap entry point, implemented by every
/// backend in the crate:
///
/// | backend | strategy |
/// |---|---|
/// | [`ServerKey`] | sequential, one reused workspace |
/// | [`BootstrapEngine`](crate::BootstrapEngine) | persistent self-healing pool |
/// | [`Dispatcher`](crate::dispatch::Dispatcher) | dynamic micro-batching front-end, failover across breaker-guarded backend tiers |
/// | [`KeyStoreBootstrapper`](crate::KeyStoreBootstrapper) | each batch under its tenant's key, pinned in a [`KeyStore`](crate::KeyStore) |
///
/// All implementations return results in input order, bit-identical to
/// the sequential [`ServerKey`] path, so backends are swappable anywhere
/// that is generic over `B: Bootstrapper + ?Sized`.
pub trait Bootstrapper {
    /// Bootstrap every ciphertext in `req` through its LUT, in input
    /// order.
    ///
    /// # Errors
    ///
    /// Validation errors ([`TfheError::LweDimensionMismatch`],
    /// [`TfheError::LutSizeMismatch`], …) on malformed requests, plus
    /// whatever execution errors the backend can produce (engine:
    /// [`TfheError::WorkerPanicked`] / [`TfheError::JobTimedOut`];
    /// dispatcher: [`TfheError::DeadlineExceeded`] /
    /// [`TfheError::DispatcherShutDown`]; …).
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError>;

    /// This backend's serving state, read by its dispatcher tier's breaker
    /// whenever a batch is routed to it: [`EngineHealth::Failed`] benches
    /// the tier before it is called. `Healthy` unless the backend knows better — a
    /// [`BootstrapEngine`](crate::BootstrapEngine) reports its pool's
    /// [`health`](crate::BootstrapEngine::health).
    fn health(&self) -> EngineHealth {
        EngineHealth::Healthy
    }
}

impl<B: Bootstrapper + ?Sized> Bootstrapper for &B {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        (**self).try_bootstrap_batch(req)
    }

    fn health(&self) -> EngineHealth {
        (**self).health()
    }
}

impl<B: Bootstrapper + ?Sized> Bootstrapper for Arc<B> {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        (**self).try_bootstrap_batch(req)
    }

    fn health(&self) -> EngineHealth {
        (**self).health()
    }
}

impl ServerKey {
    /// Check every ciphertext and every LUT in `req` against this key's
    /// parameters (shared by all backends).
    pub(crate) fn validate_request(&self, req: &BatchRequest) -> Result<(), TfheError> {
        for ct in req.ciphertexts() {
            if ct.dim() != self.params().lwe_dim {
                return Err(TfheError::LweDimensionMismatch {
                    expected: self.params().lwe_dim,
                    got: ct.dim(),
                });
            }
        }
        for lut in req.luts() {
            if lut.polynomial().len() != self.params().poly_size {
                return Err(TfheError::LutSizeMismatch {
                    lut: lut.polynomial().len(),
                    poly_size: self.params().poly_size,
                });
            }
        }
        Ok(())
    }
}

/// The single-core CPU baseline: the whole request as one chunk through a
/// single [`BootstrapWorkspace`](crate::BootstrapWorkspace), deterministic
/// order. Its blind rotations advance together, one
/// CMUX step at a time, and its key switches share one pass over the KSK,
/// so that each key operand is read once for the whole batch
/// (bit-identical to the per-item loop — see
/// [`blind_rotate_assign_many`](crate::bootstrap::blind_rotate_assign_many)).
impl Bootstrapper for ServerKey {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        if req.is_empty() {
            return Ok(Vec::new());
        }
        self.validate_request(req)?;
        self.try_bootstrap_chunk(&req.items(0..req.len()), &mut self.workspace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::ClientKey;
    use crate::params::ParamSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture() -> (ClientKey, ServerKey, Lut, Vec<LweCiphertext>) {
        let mut rng = StdRng::seed_from_u64(9000);
        let params = ParamSet::Test.params();
        let ck = ClientKey::generate(params.clone(), &mut rng);
        let sk = ServerKey::new(&ck, &mut rng);
        let lut = Lut::from_fn(params.poly_size, 4, |m| (m + 1) % 4);
        let cts: Vec<_> = (0..5).map(|m| ck.encrypt(m % 4, &mut rng)).collect();
        (ck, sk, lut, cts)
    }

    #[test]
    fn builder_validates_selector_length() {
        let (_, _, lut, cts) = fixture();
        let n = cts.len();
        let err = BatchRequest::builder()
            .ciphertexts(cts)
            .luts(vec![lut.clone(), lut])
            .selectors(vec![0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            TfheError::LutSelectorLengthMismatch {
                expected: n,
                got: 1
            }
        );
    }

    #[test]
    fn builder_rejects_missing_lut_and_bad_index() {
        let (_, _, lut, cts) = fixture();
        let err = BatchRequest::builder()
            .ciphertexts(cts.clone())
            .build()
            .unwrap_err();
        assert_eq!(err, TfheError::NoLutProvided);

        let err = BatchRequest::per_item(cts.clone(), vec![lut.clone()], vec![0, 0, 0, 0, 7])
            .unwrap_err();
        assert_eq!(err, TfheError::LutIndexOutOfRange { index: 7, luts: 1 });

        // Several LUTs with no selectors is ambiguous.
        let err = BatchRequest::builder()
            .ciphertexts(cts)
            .luts(vec![lut.clone(), lut])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            TfheError::LutSelectorLengthMismatch { got: 0, .. }
        ));
    }

    #[test]
    fn fanout_request_validates_shape() {
        let (_, _, lut, cts) = fixture();
        let n = cts.len();
        let err = BatchRequest::builder()
            .ciphertexts(cts.clone())
            .luts(vec![lut.clone()])
            .selectors(vec![0; n])
            .fanout(vec![vec![0]; n])
            .build()
            .unwrap_err();
        assert_eq!(err, TfheError::FanoutSelectorConflict);

        let err =
            BatchRequest::fanned_out(cts.clone(), vec![lut.clone()], vec![vec![0]; 3]).unwrap_err();
        assert_eq!(
            err,
            TfheError::FanoutLengthMismatch {
                expected: n,
                got: 3
            }
        );

        let mut map = vec![vec![0]; n];
        map[2].clear();
        let err = BatchRequest::fanned_out(cts.clone(), vec![lut.clone()], map).unwrap_err();
        assert_eq!(err, TfheError::EmptyFanout { input: 2 });

        let err = BatchRequest::fanned_out(cts, vec![lut], vec![vec![1]; n]).unwrap_err();
        assert_eq!(err, TfheError::LutIndexOutOfRange { index: 1, luts: 1 });
    }

    #[test]
    fn fanout_batch_matches_bootstrap_many_per_input() {
        let (ck, sk, _, cts) = fixture();
        let poly = sk.params().poly_size;
        let luts = vec![
            Lut::identity(poly, 4),
            Lut::from_fn(poly, 4, |m| (m + 1) % 4),
            Lut::from_fn(poly, 4, |m| (3 * m) % 4),
        ];
        let req = BatchRequest::many(cts.clone(), luts.clone()).unwrap();
        assert_eq!(req.output_len(), cts.len() * luts.len());
        assert_eq!(req.output_count(0), luts.len());
        assert_eq!(req.luts_for(1).len(), luts.len());
        let out = sk.try_bootstrap_batch(&req).unwrap();
        assert_eq!(out.len(), cts.len() * luts.len());
        let funcs: [fn(u64) -> u64; 3] = [|m| m, |m| (m + 1) % 4, |m| (3 * m) % 4];
        for (i, ct) in cts.iter().enumerate() {
            let want = sk
                .try_programmable_bootstrap_many_with(ct, &luts, &mut sk.workspace())
                .unwrap();
            assert_eq!(
                &out[i * luts.len()..(i + 1) * luts.len()],
                want.as_slice(),
                "input {i}"
            );
            let m = i as u64 % 4;
            for (j, f) in funcs.iter().enumerate() {
                assert_eq!(ck.decrypt(&out[i * luts.len() + j]), f(m), "i={i} j={j}");
            }
        }
    }

    #[test]
    fn empty_request_needs_no_lut() {
        let req = BatchRequest::builder().build().unwrap();
        assert!(req.is_empty());
        let (_, sk, _, _) = fixture();
        assert_eq!(sk.try_bootstrap_batch(&req).unwrap(), Vec::new());
    }

    #[test]
    fn server_key_backend_matches_plain_bootstrap() {
        let (ck, sk, lut, cts) = fixture();
        let req = BatchRequest::shared(cts.clone(), lut.clone());
        let out = sk.try_bootstrap_batch(&req).unwrap();
        assert_eq!(out.len(), cts.len());
        for (i, (ct, o)) in cts.iter().zip(&out).enumerate() {
            assert_eq!(o, &sk.programmable_bootstrap(ct, &lut), "i={i}");
            assert_eq!(ck.decrypt(o), ((i as u64 % 4) + 1) % 4);
        }
    }

    #[test]
    fn per_item_selects_the_right_lut() {
        let (ck, sk, _, cts) = fixture();
        let p = sk.params().clone();
        let plus1 = Lut::from_fn(p.poly_size, 4, |m| (m + 1) % 4);
        let double = Lut::from_fn(p.poly_size, 4, |m| (2 * m) % 4);
        let sel = vec![0, 1, 0, 1, 0];
        let req = BatchRequest::per_item(cts.clone(), vec![plus1, double], sel.clone()).unwrap();
        let out = sk.try_bootstrap_batch(&req).unwrap();
        for (i, o) in out.iter().enumerate() {
            let m = i as u64 % 4;
            let want = if sel[i] == 0 {
                (m + 1) % 4
            } else {
                (2 * m) % 4
            };
            assert_eq!(ck.decrypt(o), want, "i={i}");
        }
    }

    #[test]
    fn blanket_impls_forward() {
        let (_, sk, lut, cts) = fixture();
        let req = BatchRequest::shared(cts, lut);
        let want = sk.try_bootstrap_batch(&req).unwrap();
        let by_ref: &ServerKey = &sk;
        assert_eq!(by_ref.try_bootstrap_batch(&req).unwrap(), want);
        let arced: Arc<ServerKey> = Arc::new(sk);
        assert_eq!(arced.try_bootstrap_batch(&req).unwrap(), want);
        let dynamic: &dyn Bootstrapper = &arced;
        assert_eq!(dynamic.try_bootstrap_batch(&req).unwrap(), want);
    }

    #[test]
    fn validation_errors_surface() {
        let mut rng = StdRng::seed_from_u64(9001);
        let (_, sk, lut, _) = fixture();
        let mut small = ParamSet::Test.params();
        small.lwe_dim = 8;
        let other = ClientKey::generate(small, &mut rng);
        let bad = other.encrypt(0, &mut rng);
        let req = BatchRequest::shared(vec![bad], lut);
        assert!(matches!(
            sk.try_bootstrap_batch(&req),
            Err(TfheError::LweDimensionMismatch { .. })
        ));

        let (_, _, _, cts) = fixture();
        let wrong_lut = Lut::identity(64, 4);
        let req = BatchRequest::shared(cts, wrong_lut);
        assert!(matches!(
            sk.try_bootstrap_batch(&req),
            Err(TfheError::LutSizeMismatch { .. })
        ));
    }
}
