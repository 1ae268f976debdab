"""RouTEE: a payment routing hub with spend-all settlement, plus the
simulated UTXO chain and attack harness that exercise its security story."""
