//! The unified batch-bootstrap API surface: [`BatchRequest`] and the
//! [`Bootstrapper`] trait.
//!
//! Four bootstrap backends share this one operator interface (the table
//! on [`Bootstrapper`]). Callers describe *what* to bootstrap in a
//! [`BatchRequest`] (ciphertexts, the LUTs each one goes through, and the
//! tenant the dispatcher routes by) and any [`Bootstrapper`] decides
//! *how*, the way single-kernel TFHE designs define one configurable
//! entry point.
//!
//! A request has one shape: ciphertext `i` goes through every LUT its
//! list `lists[i]` names, all evaluated from one blind rotation via
//! multi-value bootstrapping (see [`MultiLutPlan`](crate::MultiLutPlan)).
//! A list of one is the plain bootstrap, bit for bit, and
//! [`shared`](BatchRequest::shared) is every list `[0]`. Outputs are
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

use crate::engine::EngineHealth;
use crate::error::TfheError;
use crate::journal::Journal;
use crate::keystore::TenantId;
use crate::lut::Lut;
use crate::lwe::LweCiphertext;
use crate::server::{ChunkItem, ServerKey};

/// A self-describing batch-bootstrap request: the one argument every
/// [`Bootstrapper`] takes.
///
/// Ciphertext `i` goes through `luts[j]` for every `j` of its list
/// `lists[i]`, in list order — one blind rotation and `lists[i].len()`
/// outputs. Construction validates the lists once, so every backend can
/// trust each index to be in range.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    cts: Vec<LweCiphertext>,
    luts: Vec<Lut>,
    lists: Vec<Vec<usize>>,
    tenant: Option<TenantId>,
}

impl BatchRequest {
    /// Every ciphertext through the same `lut` — the common case, and
    /// infallible: every list is `[0]`.
    pub fn shared(cts: Vec<LweCiphertext>, lut: Lut) -> Self {
        Self {
            lists: vec![vec![0]; cts.len()],
            cts,
            luts: vec![lut],
            tenant: None,
        }
    }

    /// Ciphertext `i` through every LUT in `lists[i]` (e.g. a tree node
    /// comparing one feature against several thresholds at once; lists
    /// of one pick a LUT per ciphertext).
    ///
    /// # Errors
    ///
    /// [`TfheError::NoLutProvided`] if there are ciphertexts but no LUT,
    /// [`TfheError::FanoutLengthMismatch`] unless there is one list per
    /// ciphertext, [`TfheError::EmptyFanout`] for an empty list, and
    /// [`TfheError::LutIndexOutOfRange`] for an index past the LUTs.
    pub fn fanned_out(
        cts: Vec<LweCiphertext>,
        luts: Vec<Lut>,
        lists: Vec<Vec<usize>>,
    ) -> Result<Self, TfheError> {
        if !cts.is_empty() && luts.is_empty() {
            return Err(TfheError::NoLutProvided);
        }
        let (expected, got, n) = (cts.len(), lists.len(), luts.len());
        if expected != got {
            return Err(TfheError::FanoutLengthMismatch { expected, got });
        }
        for (input, list) in lists.iter().enumerate() {
            if list.is_empty() {
                return Err(TfheError::EmptyFanout { input });
            }
            if let Some(&index) = list.iter().find(|&&j| j >= n) {
                return Err(TfheError::LutIndexOutOfRange { index, luts: n });
            }
        }
        Ok(Self {
            cts,
            luts,
            lists,
            tenant: None,
        })
    }

    /// The ciphertexts to bootstrap, in order.
    pub fn ciphertexts(&self) -> &[LweCiphertext] {
        &self.cts
    }

    /// The LUT table (one entry in the shared-LUT case).
    pub fn luts(&self) -> &[Lut] {
        &self.luts
    }

    /// `lists()[i]`: the indices into [`luts`](Self::luts) ciphertext `i`
    /// goes through, in output order.
    pub(crate) fn lists(&self) -> &[Vec<usize>] {
        &self.lists
    }

    /// Number of output ciphertexts input `i` produces.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn output_count(&self, i: usize) -> usize {
        self.lists[i].len()
    }

    /// Total number of output ciphertexts the request produces
    /// (`Σ output_count(i)`; equals [`len`](Self::len) when every list
    /// has one LUT).
    pub fn output_len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// The ciphertexts of `range`, each with the LUTs its list names: what
    /// [`ServerKey::try_bootstrap_chunk`] takes.
    pub(crate) fn items(&self, range: std::ops::Range<usize>) -> Vec<ChunkItem<'_>> {
        range
            .map(|i| {
                let luts = self.lists[i].iter().map(|&j| &self.luts[j]).collect();
                (&self.cts[i], luts)
            })
            .collect()
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
    /// dispatcher: [`TfheError::Overloaded`] /
    /// [`TfheError::DispatcherShutDown`], or its last tier's error; …).
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError>;

    /// This backend's serving state, read by its dispatcher tier's breaker
    /// whenever a batch is routed to it: [`EngineHealth::Failed`] benches
    /// the tier before it is called. `Healthy` unless the backend knows better — a
    /// [`BootstrapEngine`](crate::BootstrapEngine) reports its pool's
    /// [`health`](crate::BootstrapEngine::health).
    fn health(&self) -> EngineHealth {
        EngineHealth::Healthy
    }

    /// The journal this backend records into, which a dispatcher built over
    /// it shares; `None` unless it keeps one (an engine, a key store's, a
    /// dispatcher's). Named apart from their inherent `journal()`.
    fn stack_journal(&self) -> Option<&Arc<Journal>> {
        None
    }
}

impl<B: Bootstrapper + ?Sized> Bootstrapper for &B {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        (**self).try_bootstrap_batch(req)
    }

    fn health(&self) -> EngineHealth {
        (**self).health()
    }

    fn stack_journal(&self) -> Option<&Arc<Journal>> {
        (**self).stack_journal()
    }
}

impl<B: Bootstrapper + ?Sized> Bootstrapper for Arc<B> {
    fn try_bootstrap_batch(&self, req: &BatchRequest) -> Result<Vec<LweCiphertext>, TfheError> {
        (**self).try_bootstrap_batch(req)
    }

    fn health(&self) -> EngineHealth {
        (**self).health()
    }

    fn stack_journal(&self) -> Option<&Arc<Journal>> {
        (**self).stack_journal()
    }
}

impl ServerKey {
    /// Check every ciphertext and every LUT in `req` against this key's
    /// parameters (shared by all backends).
    pub(crate) fn validate_request(&self, req: &BatchRequest) -> Result<(), TfheError> {
        let (expected, poly_size) = (self.params().lwe_dim, self.params().poly_size);
        let mut dims = req.ciphertexts().iter().map(LweCiphertext::dim);
        if let Some(got) = dims.find(|&d| d != expected) {
            return Err(TfheError::LweDimensionMismatch { expected, got });
        }
        let mut sizes = req.luts().iter().map(|lut| lut.polynomial().len());
        match sizes.find(|&n| n != poly_size) {
            Some(lut) => Err(TfheError::LutSizeMismatch { lut, poly_size }),
            None => Ok(()),
        }
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
    fn fanout_request_validates_shape() {
        let (_, _, lut, cts) = fixture();
        let n = cts.len();
        let err = BatchRequest::fanned_out(cts.clone(), Vec::new(), vec![vec![0]; n]).unwrap_err();
        assert_eq!(err, TfheError::NoLutProvided);

        let err =
            BatchRequest::fanned_out(cts.clone(), vec![lut.clone()], vec![vec![0]; 3]).unwrap_err();
        assert_eq!(
            err,
            TfheError::FanoutLengthMismatch {
                expected: n,
                got: 3
            }
        );

        let mut lists = vec![vec![0]; n];
        lists[2].clear();
        let err = BatchRequest::fanned_out(cts.clone(), vec![lut.clone()], lists).unwrap_err();
        assert_eq!(err, TfheError::EmptyFanout { input: 2 });

        let mut lists = vec![vec![0]; n];
        lists[4] = vec![0, 7];
        let err = BatchRequest::fanned_out(cts, vec![lut], lists).unwrap_err();
        assert_eq!(err, TfheError::LutIndexOutOfRange { index: 7, luts: 1 });
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
        let lists = vec![(0..luts.len()).collect(); cts.len()];
        let req = BatchRequest::fanned_out(cts.clone(), luts.clone(), lists).unwrap();
        assert_eq!(req.output_len(), cts.len() * luts.len());
        assert_eq!(req.output_count(0), luts.len());
        assert_eq!(req.items(1..2)[0].1.len(), luts.len());
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
        let req = BatchRequest::fanned_out(Vec::new(), Vec::new(), Vec::new()).unwrap();
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
    fn lists_of_one_select_the_right_lut() {
        let (ck, sk, _, cts) = fixture();
        let p = sk.params().clone();
        let plus1 = Lut::from_fn(p.poly_size, 4, |m| (m + 1) % 4);
        let double = Lut::from_fn(p.poly_size, 4, |m| (2 * m) % 4);
        let sel = [0, 1, 0, 1, 0];
        let lists = sel.iter().map(|&j| vec![j]).collect();
        let req = BatchRequest::fanned_out(cts.clone(), vec![plus1, double], lists).unwrap();
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
