(** Signed arbitrary-precision integers (sign + magnitude over
    {!Nat}).  A thin layer used mainly by the extended Euclidean
    algorithm; zero always carries a positive sign. *)

type t

val zero : t
val one : t

val of_nat : Nat.t -> t

val abs : t -> Nat.t
val sign : t -> int
(** [-1], [0] or [1]. *)

val sub : t -> t -> t
val mul : t -> t -> t
