(** Message-driven protocol endpoints: a cloud server and a DA that
    communicate exclusively through encoded {!Wire} bytes carried by
    a {!Transport}, the way a deployed SecCloud would over TCP.

    The server endpoint is a pure byte-in/byte-out handler around a
    {!Cloud.t}; the DA endpoint drives complete audit conversations
    through the fault-injectable channel and returns verdicts.  Both
    sides re-validate everything they decode, so the pair double as
    an integration test of the wire layer: any message the channel
    (or an attacker-in-the-middle) mangles is rejected, retried, and
    ultimately blamed with a typed {!Transport.error}-derived
    failure rather than an exception. *)

module Server : sig
  type t

  val create : System.t -> Cloud.t -> t
  (** The server's retained executions, like the warrant memo of its
      {!Cloud.t} ({!Cloud.respond_to_audit}), belong to this one
      server; the service layer keeps one per shard. *)

  val handle : t -> now:float -> string -> string
  (** Process one encoded request and return the encoded reply:
      - [Upload] → [Ack] (verification per the server's behaviour);
      - [Storage_challenge] → [Storage_response];
      - [Compute_request] → [Compute_commitment] (the execution is
        retained, keyed by owner and file, for later audits);
      - [Audit_challenge] → [Audit_response], or a "warrant rejected"
        [Ack] error when {!Cloud.respond_to_audit} refuses the
        challenge's warrant (not the owner's, not for the DA,
        expired or forged), or an [Ack] error when no execution
        matches.
      Malformed input or unexpected message kinds yield an error
      [Ack] rather than an exception.  Partially applied,
      [handle server] is exactly the handler a {!Transport.create}
      expects. *)
end

module Da : sig
  type t

  val create : System.t -> t
  (** A DA endpoint with its own challenge DRBG, its own memo of
      accepted commitment root signatures and its own suspect set, as
      {!Agency.create}; the service layer keeps one per shard.  A
      storage audit names the server by {!Transport.peer}, a
      computation or batch audit by each commitment's [cs_id] when
      that commitment's root signature verifies. *)

  val audit_storage_over_wire :
    t ->
    transport:Transport.t ->
    owner:string ->
    file:string ->
    indices:int list ->
    Agency.storage_report
  (** Sends a [Storage_challenge] through the transport (retrying per
      its policy) and verifies whatever comes back.  A round that
      exhausts its retries yields a report with
      [channel = Some Timeout/Tampered] and every index flagged
      invalid — the blame path treats unresponsive servers like
      failed verifications. *)

  val audit_computation_over_wire :
    t ->
    transport:Transport.t ->
    owner:string ->
    file:string ->
    commitment:Sc_audit.Protocol.commitment ->
    warrant:Sc_ibc.Warrant.signed ->
    now:float ->
    samples:int ->
    Sc_audit.Protocol.verdict
  (** Runs the full Algorithm-1 conversation over the transport:
      {!audit_batch_over_wire} of one target.  On channel failure the
      verdict carries a typed [Transport_timeout] /
      [Transport_tampered] blame naming {!Transport.peer}. *)

  type batch_target = {
    transport : Transport.t;
    owner : string;
    file : string;
    commitment : Sc_audit.Protocol.commitment;
    warrant : Sc_ibc.Warrant.signed;
  }

  val audit_batch_over_wire :
    t ->
    targets:batch_target list ->
    samples:int ->
    Sc_audit.Protocol.verdict
  (** §VI batched auditing over the wire: every responsive target
      contributes a job to one {!Sc_audit.Protocol.verify} (batch
      equations with per-entry fallback for blame).  The failures
      start with one typed [Transport_timeout], then one
      [Transport_tampered], per target whose round exhausted its
      retries, each kind in target order, then one [Warrant_invalid] per target that refused its
      challenge, then the verification's; any of them invalidates the
      verdict, so unresponsive servers are flagged exactly like failed
      verifications. *)
end
