(** The outsourced-computation task model (§III-B, §V-C).

    A computing service F = {f_1, …, f_n} is a list of functions, each
    applied to the data block at a position p_i.  Blocks carry integer
    vectors; functions are the paper's examples ("data sum, data
    average, data maximum, or other complicated computations based on
    these") plus polynomial and dot-product forms that compose them. *)

type func =
  | Sum
  | Average  (** Integer average, rounded toward zero. *)
  | Max
  | Min
  | Count
  | Dot of int list
      (** Dot product with a constant vector (shorter side zero-padded). *)
  | Polynomial of int list
      (** p(Σx): coefficients lowest-degree first, evaluated at the
          block sum. *)
  | Compose of func * func list
      (** Outer function applied to the vector of inner results on the
          same block. *)

type request = { func : func; position : int }
(** One sub-task f_i(x_{p_i}). *)

type service = request list

val eval : func -> Sc_storage.Block.t -> int option
(** Decodes the block payload and applies; [None] if the payload is
    not numeric. *)

val random_service :
  drbg:Sc_hash.Drbg.t -> n_positions:int -> n_tasks:int -> service
(** A workload generator: [n_tasks] random functions over random
    positions in [\[0, n_positions)]. *)
