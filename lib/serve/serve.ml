(* The assessment service. [Json] is the repo-wide codec (lib/json),
   re-exported here so [Serve.Json] keeps naming it. *)

module Json = Json
module Protocol = Protocol
module Client = Client
module Queue = Queue
module Registry = Registry
module Store = Store
module Server = Server
