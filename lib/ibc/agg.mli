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
    so it does not check it either.  These are the caller's duties of
    {!Sc_pairing.Equation.combine}, so the batch accepts exactly the
    batches whose every entry passes {!Dvs.verify}, except with
    probability at most 2⁻⁶⁴ per batch that contains a bad entry (two
    δ_j of the 2⁶⁴ on [toy], whose q has 64 bits). *)

type entry = { signer : string; msg : string; dvs : Dvs.t }

val verify_batch :
  Setup.public -> verifier_key:Setup.identity_key -> entry list -> bool
(** Accepts the empty batch.  The entries' {!Dvs.equation}s, combined
    by {!Sc_pairing.Equation.combine} under the δ_i: one pairing, one
    {!Sc_ec.Curve.msm} over the U_i with one fixed-base comb per
    distinct signer, one {!Sc_pairing.Tate.gt_in_group} per entry and
    one {!Sc_pairing.Tate.gt_multi_exp}.  Counts on [agg.verify_batch]
    and [agg.verify_batch_sigs], under span [agg.verify_batch]. *)

val verify_each :
  Setup.public ->
  verifier_key:Setup.identity_key ->
  ?suspects:Digest_set.t ->
  (string option * entry) option list ->
  bool option list
(** Batch then blame, slot by slot ({!Sc_pairing.Equation.verify_each},
    as {!Ibs.verify_each}): a [Some (server, entry)] slot, [server]
    naming the sender when the caller has authenticated one, gets
    {!Dvs.verify}'s answer in place, up to 2⁻⁶⁴ per batch that holds a
    bad entry; a [None] slot stays [None].  [suspects] holds suspect
    servers by {!Digest_set.key} of their id; their entries skip the
    batch for one {!Dvs.verify_all} (span [agg.suspect], counted on
    [agg.verify_each.suspect_sigs]).  Of the others a lone one costs
    one {!Dvs.verify}, two or more one {!verify_batch}, and only when
    it rejects one {!Dvs.verify_all} (span [agg.blame], counted on
    [agg.verify_each.rejects]): 1 + t pairings for t entries.
    Afterwards a named server is in [suspects] exactly when none of its
    entries passed; an entry with no server moves no server, and
    without [suspects] no server is suspect. *)
