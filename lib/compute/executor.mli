(** Cloud-side execution of a computing service and the Merkle-tree
    commitment of §V-C2, with injectable computation cheating (the
    Computation-Cheating Model of §III-B).

    The executor reads its inputs through a {!Sc_storage.Server}, so
    storage-level cheating (deleted/corrupted/substituted blocks)
    composes naturally with computation-level cheating. *)

type behaviour =
  | Honest
  | Guess_fraction of float * int
      (** Fraction of sub-tasks answered with a uniform guess from a
          range of the given size instead of computing — the FCS
          attack with |R| = that size. *)
  | Skip_fraction of float
      (** Fraction of sub-tasks skipped; a constant is returned. *)
  | Wrong_position_fraction of float
      (** Fraction computed on a cheaper/different position's data
          while claiming the requested one — the PCS attack. *)
  | Commit_garbage_fraction of float
      (** Commits garbage leaves but answers audits with freshly
          recomputed (correct) values — caught by the root check. *)

type response = {
  task_index : int;
  request : Task.request;
  read : Sc_storage.Server.read_result option; (* data + signature *)
  result : int;
  proof : Sc_merkle.Dynamic_tree.proof;
}

type execution

val run :
  Sc_ibc.Setup.public ->
  cs_key:Sc_ibc.Setup.identity_key ->
  server:Sc_storage.Server.t ->
  behaviour:behaviour ->
  drbg:Sc_hash.Drbg.t ->
  owner:string ->
  file:string ->
  Task.service ->
  execution

val results : execution -> int array
(** The Y = {y_i} returned to the cloud user. *)

val root : execution -> string
val root_signature : execution -> Sc_ibc.Ibs.t
val server_id : execution -> string

val owner : execution -> string
(** The [~owner] the execution was {!run} for: whose file it read. *)

val service : execution -> Task.service

val leaf_payload : result:int -> position:int -> string
(** The leaf encoding H(y_i ‖ p_i) is computed over. *)

val respond : execution -> int -> response
(** The server's answer to an audit challenge on sub-task [i]:
    the input block with its signature material, the committed result,
    and the Merkle authentication path.
    @raise Invalid_argument when out of bounds. *)
