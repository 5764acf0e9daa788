"""Every verdict threshold and numerical cutoff, set once.

The other modules and the CLI defaults read these constants; no other
module writes a tolerance value.  Checks that scale a threshold, for
instance by ``max(1, norm)`` of the object under test, do so at the point
of use.  Only two are settable per run: ``--tol-cq`` replaces ``CQ_TOL`` in
every discord-breaking and annihilating verdict of ``classify`` and
``verify-da``, and ``--tol-cptp`` replaces ``VALIDITY_TOL`` in the
complete-positivity check of Choi channel files.
"""

# -- input validity ------------------------------------------------------------
# Hermiticity, unit trace and positivity of states; trace preservation and
# complete positivity of channels; POVM positivity and completeness and the
# orthonormality of its output basis; mixture weights; unit subset vectors.
VALIDITY_TOL = 1e-9

# -- verdicts ------------------------------------------------------------------
# Exact structure tests: classical-quantum states (zero discord),
# measure-and-prepare channels on A, point channels on B, certification of
# annihilating channels on AB and reconstruction of a CQ decomposition.
CQ_TOL = 1e-8
# A transfer matrix is rank deficient when sigma_min < RANK_TOL * sigma_max;
# the singular directions above that cut span a channel's image.
RANK_TOL = 1e-8
# Structural membership of a state in a convex CQ subset.
MEMBERSHIP_TOL = 1e-8
# Entanglement breaking: PPT negativity, and the product-Choi shortcut.
EB_TOL = 1e-9

# -- partitions ----------------------------------------------------------------
# Idempotence, mutual orthogonality and completeness of the projectors of an
# annihilating-channel spec, a convex-subset spec or a measurement.
PARTITION_TOL = 1e-10

# -- structural recovery of annihilating channels ------------------------------
# Singular values below NULLSPACE_CUTOFF * sigma_max span the commutant.
NULLSPACE_CUTOFF = 1e-7
# Eigenvalues of a commutant element closer than CLUSTER_GAP * scale share a block.
CLUSTER_GAP = 1e-6
# A block whose weights tr[(P (x) 1) X_m] over the orthonormal image basis X_m
# have a norm below this receives no output; it points to the maximally mixed state.
EMPTY_BLOCK_WEIGHT = 1e-9
# A block's B conditional is pinned when, over the image basis, the parts
# tr_A[(P (x) 1) X_m] lie within this of their fit to weight * sigma.
POINT_SPREAD_TOL = 1e-7
# Relative Choi distance within which the rebuilt channel matches.
REBUILD_TOL = 1e-6

# -- zero cutoffs --------------------------------------------------------------
# Probabilities, eigenvalues and norms below this count as zero, and so does a
# state's eigenvalue down to -ZERO_CUTOFF * max(1, ||rho||), below which
# validation clips the state to the PSD cone; also the
# slack of the unital-qubit tetrahedron test and of Kraus extraction from a
# Choi matrix (relative to its largest eigenvalue), and the relative slack
# within which entries tie for the phase pivot of a derived Kraus operator.
ZERO_CUTOFF = 1e-12

# -- optimisation --------------------------------------------------------------
# A start of a gradient ascent stops once a step gains no more, or once its
# next step's first-order gain is no more.
REFINE_MARGIN = 1e-15
# A gradient ascent stops refining a start once its tangent step length falls
# below this, on the Bloch sphere and on U(dA) alike.
ANGLE_STEP_TOL = 1e-7
