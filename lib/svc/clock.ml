(* The service layer's name for the one clock. *)
include Lf_obs.Clock
