(** Batch verification of designated-verifier signatures (§VI).

    For t entries (U_i, Σ_i) from any number of signers, the verifier
    B checks one equation,

      Π_i Σ_i^δ_i = ê(Σ_i δ_i·U_i + Σ_ID (Σ_i δ_i·h_i mod q)·Q_ID, sk_B),

    with h_i = H2(U_i‖m_i): a single pairing regardless of batch size,
    versus one per signature individually (the paper counts 2 vs 2t
    including the signer-side transform).

    This is the small-exponent test of Bellare–Garay–Rabin.  The δ_i
    are 64 bits each, read from HMAC-SHA256 keyed by sk_B over the
    whole batch transcript (signer, message, U, Σ of every entry), so
    a signer, who does not hold sk_B, cannot predict them.  Without
    them the product of the Σ_i is all that is checked, and two
    entries Σ_1·X, Σ_2·X⁻¹ pass together (Boyd–Pavlovski).

    Before the equation every entry must have U_i on the curve and
    Σ_i in GT (unitary, Σ_i^q = 1) — exactly what {!Dvs.verify}
    implies, since a pairing value is in GT.  U_i is not subgroup
    checked: {!Dvs.verify} evaluates ê(sk_B, W) with sk_B fixed, which
    is linear in W over all of E(F_p) and maps cofactor torsion to 1,
    so it does not check it either.  With those checks the batch
    accepts exactly the batches whose every entry passes {!Dvs.verify},
    except with probability at most 2⁻⁶⁴ per batch that contains a bad
    entry: each entry's discrepancy Σ_j / ê(sk_B, W_j) then lies in GT,
    of prime order q, so for any fixed choice of the other
    coefficients at most one δ_j mod q balances a bad entry j (two of
    the 2⁶⁴ values on [toy], whose q has 64 bits).  A good batch always
    passes. *)

type entry = { signer : string; msg : string; dvs : Dvs.t }

val verify_batch :
  Setup.public -> verifier_key:Setup.identity_key -> entry list -> bool
(** Accepts the empty batch.  Spends one pairing, one
    {!Sc_ec.Curve.msm} over the U_i, one fixed-base multiplication per
    distinct signer, one {!Sc_pairing.Tate.gt_in_group} per entry and
    one {!Sc_pairing.Tate.gt_multi_exp}.  Counts on [agg.verify_batch]
    and [agg.verify_batch_sigs], under span [agg.verify_batch]. *)

val verify_each :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  entry option list ->
  bool option list
(** Batch then blame, slot by slot: a [Some] slot holds an entry to
    check and gets its answer back in place; a [None] slot (nothing to
    check) stays [None].  One {!verify_batch} runs over all entries,
    and only when it rejects one {!Dvs.verify} per entry (under span
    [agg.blame], counted on [agg.verify_each.rejects]).  The answers
    are {!Dvs.verify}'s, entry by entry, except with probability at
    most 2⁻⁶⁴ per batch that holds a bad entry (see above).  Costs one
    pairing when every entry is good and 1 + t when one is not. *)
