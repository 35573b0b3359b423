(** The binary wire protocol: every message the parties exchange in
    Protocols II/III and the audit flow, with a tagged, length-prefixed
    encoding.

    Having a concrete wire format serves three purposes: the simulator
    charges *exact* transfer sizes to its network model, tests can
    tamper with bytes in flight (failure injection), and the encoding
    documents precisely what each exchange costs — the C_trans of
    Theorem 3. *)

exception Decode_error of string
(** Re-export of {!Codec.Decode_error}. *)

type msg =
  | Upload of Sc_storage.Signer.upload
      (** Protocol II: user → server. *)
  | Storage_challenge of { file : string; indices : int list }
      (** DA → server. *)
  | Storage_response of
      (int * Sc_storage.Server.read_result option) list
      (** server → DA. *)
  | Compute_request of {
      owner : string;
      file : string;
      service : Sc_compute.Task.service;
    }  (** user → server (Protocol III). *)
  | Compute_commitment of {
      results : int array;
      commitment : Sc_audit.Protocol.commitment;
    }  (** server → user/DA: Y and Sig(R). *)
  | Audit_challenge of {
      owner : string;
      file : string;
      challenge : Sc_audit.Protocol.challenge;
    }  (** DA → server, warrant included; owner/file route the
          challenge to the right execution. *)
  | Audit_response of Sc_compute.Executor.response list
      (** server → DA: blocks, signatures, results, sibling sets. *)
  | Ack of { ok : bool; detail : string }
      (** Generic acknowledgement / error reply. *)

val encode : Sc_ibc.Setup.public -> msg -> string

val decode : Sc_ibc.Setup.public -> string -> msg
(** @raise Decode_error on malformed input (including trailing
    bytes). *)

val kind_name : msg -> string
(** Lowercase constructor tag, e.g. ["audit_response"] — the label
    under which telemetry counters [wire.tx.<kind>.{msgs,bytes}] and
    [wire.rx.<kind>.{msgs,bytes}] account every encode/decode (every
    encode is charged: exactly what the simulator charges its network
    model). *)

val kinds : string list
(** Every kind label, in tag order. *)
